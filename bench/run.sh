#!/usr/bin/env bash
# Builds the benchmark and the sgxnet-tables CLI from this checkout, then
# runs the benchmark with the given arguments, for example
#
#   bash bench/run.sh --workload tor-circuit --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -json out.json     # all four workloads
#
# Everything the build and the run write goes to $CARGO_TARGET_DIR
# (default .bench_build) at the root of the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

# Keep the toolchain's caches and temporary files inside the build
# directory, and never let it reach the network.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$build/bench" . && go build -o "$build/sgxnet-tables" sgxnet/cmd/sgxnet-tables)

cd "$root"
exec "$build/bench" -tables "$build/sgxnet-tables" -golden "$root/cmd/sgxnet-tables/testdata/all.golden" -out "$build" "$@"
