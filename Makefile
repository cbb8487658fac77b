# Convenience targets; CI runs the same commands directly.

.PHONY: build test race bench tables trace series

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench runs the benchmark BENCHMARK.json declares: the default
# transcript and the paper's three applications, end to end and layer
# by layer. See bench/README.md for its flags.
bench:
	bash bench/run.sh

tables:
	go run ./cmd/sgxnet-tables

# trace records a deterministic trace of the full deterministic run and
# validates it with the analyzer: well-formed, and named spans must
# explain >= 95% of the reported run totals.
trace:
	go run ./cmd/sgxnet-tables -trace out.trace > /dev/null
	go run ./cmd/sgxnet-trace -check -min-coverage 0.95 out.trace

# series records the windowed time-series export of the full
# deterministic run and runs the analyzer over it: top movers,
# monotone-growth gauges, and the multi-window SLO burn-rate alerts.
series:
	go run ./cmd/sgxnet-tables -series out.csv > /dev/null
	go run ./cmd/sgxnet-trace -series out.csv
