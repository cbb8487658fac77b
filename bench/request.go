package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"sgxnet/internal/core"
	"sgxnet/internal/obs"
)

// The three request workloads share one closed loop: a single client
// goroutine serves request i to completion before starting i+1. The
// host side is timed per call; the modelled side replays the requests'
// tallies through load.Run (model.go). A run is a series of rounds, each
// in a fresh process, so every round starts from the same heap.

const (
	// requests is the measured request count of a round. It is fixed,
	// not a duration, so the modelled metrics cover the same requests on
	// every commit, and so is the memory the tor path retains per request
	// (netsim keeps every closed exit connection). p99.9 of it has
	// exactly ten samples beyond it.
	requests = 10_000
	// warmupRequests are served after set-up and before measuring.
	warmupRequests = 1_000
	// setups is how many times a round sets the workload up; the last
	// set-up is the one measured.
	setups = 3
	// minRounds is the least number of rounds in a run; more run until
	// -seconds have passed.
	minRounds = 5
)

// app is one deployed application under load.
type app interface {
	// Serve performs request i and returns its metered tally.
	Serve(i int) (core.Tally, error)
	// Flush ends a phase: it drains batched work and returns the tally
	// that drain charged.
	Flush() (core.Tally, error)
	// Check verifies the outputs of every request served since the last
	// Check that Serve could not verify itself, and returns how many
	// were wrong.
	Check() (bad int, err error)
	// Diagnostics reports application-specific numbers for the log.
	Diagnostics() []value
	Close()
}

// deploy is the timed part of set-up: it deploys the application, with
// spans for its steps under parent.
type deploy func(tr *tracer, parent int) (app, error)

// reqWorkload is one request workload's fixed parameters.
type reqWorkload struct {
	Rate float64 // modelled Poisson rate, req/Mcycle
	SLO  uint64  // modelled p99.9 limit, cycles
	// Prepare makes the inputs of n measured requests from the seed,
	// untimed.
	Prepare func(seed int64, n int) (deploy, error)
}

// requestWorkloads are the request workloads by name. Rates put the
// modelled server at ρ≈0.8; rates and SLOs are never recalibrated, so a
// model change that makes service cheaper must lower latency.
var requestWorkloads = map[string]reqWorkload{
	"tor-circuit": {Rate: 0.44, SLO: 36_000_000, Prepare: prepareTor},
	"nf-chain":    {Rate: 0.040, SLO: 400_000_000, Prepare: prepareChain},
	"sdn-fetch":   {Rate: 0.10, SLO: 160_000_000, Prepare: prepareSDN},
}

// phase is one measured stretch of the closed loop.
type phase struct {
	durs    []float64    // wall ns of each Serve call
	tallies []core.Tally // metered tally of each request
	failed  int          // requests that errored or failed Check
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func (p *phase) n() int { return len(p.durs) }

func (p *phase) opsPerSec() float64 { return float64(p.n()) / p.wall.Seconds() }

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setUp deploys the application and serves the warm-up requests. It
// returns how long the deployment took; the warm-up, which lets caches
// fill before measuring, is not part of it.
func setUp(dep deploy, tr *tracer) (app, time.Duration, error) {
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	id := tr.begin("setup.deploy", root, -1)
	t0 := time.Now()
	a, err := dep(tr, id)
	took := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin("setup.warmup", root, -1)
	for i := 0; i < warmupRequests; i++ {
		if _, err := a.Serve(i); err != nil {
			a.Close()
			return nil, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	_, err = a.Flush()
	if err == nil {
		var bad int
		if bad, err = a.Check(); err == nil && bad > 0 {
			err = fmt.Errorf("%d warm-up outputs wrong", bad)
		}
	}
	tr.end(id)
	if err != nil {
		a.Close()
		return nil, 0, err
	}
	return a, took, nil
}

// measure serves requests warmupRequests … warmupRequests+n−1. A failed
// request is counted, logged (the first few) and the loop goes on.
func measure(a app, n int, tr *tracer) (phase, error) {
	p := phase{durs: make([]float64, 0, n), tallies: make([]core.Tally, 0, n)}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		req := warmupRequests + i
		id := tr.begin("serve", 0, req)
		s := time.Now()
		t, err := a.Serve(req)
		d := time.Since(s)
		tr.end(id)
		p.durs = append(p.durs, float64(d.Nanoseconds()))
		p.tallies = append(p.tallies, t)
		if err != nil {
			if p.failed < 5 {
				fmt.Fprintf(os.Stderr, "request %d failed: %v\n", req, err)
			}
			p.failed++
		}
	}
	id := tr.begin("flush", 0, -1)
	_, err := a.Flush()
	tr.end(id)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return p, fmt.Errorf("flush: %w", err)
	}
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC

	// Outputs Serve could not verify itself are checked after the timed
	// loop, so checking costs the measured numbers nothing.
	id = tr.begin("check", 0, -1)
	bad, err := a.Check()
	tr.end(id)
	if err != nil {
		return p, fmt.Errorf("check: %w", err)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "%d outputs differ from the reference\n", bad)
	}
	p.failed += bad
	return p, nil
}

// runRound runs one round of a request workload in this process.
// Untraced, that is the set-ups, one measured phase and the model.
// Traced, it is the layer ladder, then one set-up and measured phase
// with a probe registry installed and spans on every call; its
// ops_per_s is the traced throughput.
func runRound(name string, o options) (*result, error) {
	w := requestWorkloads[name]
	res := newResult(name, o)
	dep, err := w.Prepare(o.seed, o.requests)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if o.trace {
		return tracedRound(res, dep, o)
	}
	var setupS []float64
	var a app
	for k := 0; k < setups; k++ {
		if a != nil {
			a.Close()
		}
		var d time.Duration
		if a, d, err = setUp(dep, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	p, err := measure(a, o.requests, nil)
	res.diag = append(res.diag, a.Diagnostics()...)
	a.Close()
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = p.n(), p.failed
	mr, err := model(p.tallies, p.failed, uint64(o.seed), w.Rate, w.SLO)
	if err != nil {
		return nil, err
	}
	res.model = mr.values()
	q := percentiles(p.durs, 0.5, 0.99, tailQuantile)
	n := float64(p.n())
	res.e2e = []value{{"setup_s", median(setupS), "s"}, {"peak_rss_mb", peakRSSMiB(), "MiB"}}
	res.diag = append(res.diag,
		value{"host_p50_us", q[0] / 1e3, "us"},
		value{"ops_per_s", p.opsPerSec(), "1/s"},
		value{"cpu_us_per_op", float64(p.cpu.Nanoseconds()) / 1e3 / n, "us"},
		value{"host_p99_us", q[1] / 1e3, "us"},
		value{"host_p999_us", q[2] / 1e3, "us"},
		value{"alloc_kb_per_op", float64(p.bytes) / 1024 / n, "KiB"},
		value{"allocs_per_op", float64(p.mallocs) / n, "count"},
		value{"gc_cycles", float64(p.gcs), "count"},
	)
	return res, nil
}

func tracedRound(res *result, dep deploy, o options) (*result, error) {
	// The ladder runs first, so that no deployment's heap or goroutines
	// weigh on it and its rows read the same on every workload.
	tr := newTracer()
	layers, checks, bad, err := ladder(o, tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	reg := obs.NewRegistry()
	core.SetDefaultProbe(reg)
	a, _, err := setUp(dep, tr)
	core.SetDefaultProbe(nil)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	before := registryCounters(reg)
	p, err := measure(a, o.requests, tr)
	a.Close()
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = p.n()+checks, p.failed+bad
	res.diag = []value{{"ops_per_s", p.opsPerSec(), "1/s"}}
	res.layers = append(layers, perOpCounters(registryCounters(reg).sub(before), float64(p.n()))...)
	return res, tr.write(o.spansPath(res.workload))
}

// runRequests runs a request workload as rounds, each in a fresh child
// process, until minRounds are done and -seconds have passed, and takes
// the median of each host metric over the rounds. A traced run adds one
// traced round, whose throughput against the untraced rounds' median is
// the tracing overhead.
func runRequests(name string, o options) (*result, error) {
	res := newResult(name, o)
	var rounds []doc
	t0 := time.Now()
	for len(rounds) < minRounds || time.Since(t0) < o.seconds {
		d, err := runChild(o, name, len(rounds), false)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, d)
		res.attempted += d.Attempted
		res.failed += d.Failed
	}
	e2e, units := collect(rounds, func(d doc) map[string]metricValue { return d.EndToEnd })
	res.e2e = medians(e2e, units, endToEnd)
	diag, diagUnits := collect(rounds, func(d doc) map[string]metricValue { return d.Diagnostics })
	res.diag = medians(diag, diagUnits, nil)
	// Metering must depend only on inputs, so every round should model
	// the same values. A round that does not is reported, not counted as
	// a failed operation: the outputs were right, the bill was not.
	res.model = ordered(rounds[0].Model, modelMetrics)
	mismatched := 0
	for k, d := range rounds[1:] {
		if !reflect.DeepEqual(d.Model, rounds[0].Model) {
			fmt.Fprintf(os.Stderr, "round %d modelled %v, round 1 %v\n", k+2, d.Model, rounds[0].Model)
			mismatched++
		}
	}
	res.diag = append(res.diag, value{"rounds", float64(len(rounds)), "count"},
		value{"model_mismatched_rounds", float64(mismatched), "count"})
	if o.trace {
		d, err := runChild(o, name, len(rounds), true)
		if err != nil {
			return nil, err
		}
		res.attempted += d.Attempted
		res.failed += d.Failed
		untraced := median(diag["ops_per_s"])
		res.layers = append(ordered(d.PerLayer, perLayer),
			value{"obs.trace_overhead_pct", (untraced/d.Diagnostics["ops_per_s"].Value - 1) * 100, "%"})
	}
	res.diag = append(res.diag, value{"fail_frac", float64(res.failed) / float64(res.attempted), "ratio"})
	return res, nil
}

// ordered lists the metrics of m in the order of defs; names m lacks
// are skipped, so conform reports them.
func ordered(m map[string]metricValue, defs []metricDef) []value {
	var vs []value
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			vs = append(vs, value{d.Name, v.Value, v.Unit})
		}
	}
	return vs
}

// collect gathers each metric's values over the rounds from the group
// pick selects, with their units.
func collect(rounds []doc, pick func(doc) map[string]metricValue) (map[string][]float64, map[string]string) {
	samples, units := map[string][]float64{}, map[string]string{}
	for _, d := range rounds {
		for name, v := range pick(d) {
			samples[name] = append(samples[name], v.Value)
			units[name] = v.Unit
		}
	}
	return samples, units
}

// runChild runs one round of workload in a child process of this
// binary, its log on our standard error, and returns its document.
func runChild(o options, workload string, round int, trace bool) (doc, error) {
	path := filepath.Join(o.out, fmt.Sprintf("%s-round%d.json", workload, round+1))
	co := o
	co.workload, co.round, co.trace, co.json = workload, true, trace, path
	if err := spawn(co, os.Stderr); err != nil {
		return doc{}, fmt.Errorf("%s round %d: %w", workload, round+1, err)
	}
	return readDoc(path)
}
