package eval

import (
	"runtime"
	"sync"

	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
)

// The parallel evaluation engine. The full sgxnet-tables sweep is
// embarrassingly parallel — every Figure 3 point, every native-vs-SGX
// pair within a point, every ablation, and every fault-sweep intensity
// builds its own netsim.Network with its own hosts, meters, and RNG
// state — but the seed harness ran them strictly serially. A Runner
// fans independent scenario runs out across a bounded worker pool and
// merges results back in input order, so the rendered transcripts and
// meter tallies are byte-for-byte identical at any worker count: the
// golden files gate on it, and TestParallelSerialEquivalence enforces
// it under -race.
//
// Determinism argument: each scenario is a pure function of its inputs
// (topology seed, scenario config) — scenario code shares no package
// state (see DESIGN.md §"Concurrency & determinism"), costs are charged
// as fixed instruction counts rather than measured wall clock, and the
// DH parameter cache changes which prime is reused but never what is
// charged. Fan-out therefore changes only wall-clock interleaving;
// the in-order merge makes the output independent of completion order.

// Runner is a bounded worker pool for independent scenario runs.
type Runner struct {
	workers int
	sem     chan struct{}
	trace   *obs.Trace
	series  *series.Set
}

// NewRunner builds a pool with the given parallelism; workers <= 0
// means GOMAXPROCS. Workers == 1 degrades to strictly serial execution
// (the reference the equivalence tests compare against).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool's parallelism bound.
func (r *Runner) Workers() int { return r.workers }

// SetTrace attaches a trace: scenario runs record their phases as spans
// on per-scenario tracks. Concurrent legs always use distinct tracks and
// the exporter orders events by (track, seq), so the trace — like the
// rendered tables — is byte-identical at any worker count. Call before
// the first scenario; a nil trace (the default) keeps every span
// recorder on its no-op path.
func (r *Runner) SetTrace(tr *obs.Trace) { r.trace = tr }

// Trace returns the attached trace, or nil.
func (r *Runner) Trace() *obs.Trace { return r.trace }

// SetSeries attaches a windowed time-series set: instrumented sweeps
// (load, EPC, xcall, scale) sample per-window counters and gauges on
// their virtual clocks into per-sweep-cell tracks. Window reduction is
// order-invariant (counters sum, gauges keep the latest-timestamped
// sample) and concurrent cells always use distinct track prefixes, so
// the exported series — like the tables and the trace — are
// byte-identical at any worker count. Nil (the default) keeps every
// sampler on its no-op path.
func (r *Runner) SetSeries(s *series.Set) { r.series = s }

// Series returns the attached series set, or nil.
func (r *Runner) Series() *series.Set { return r.series }

// mapOrdered runs fn(0..n-1) on the runner and returns the results in
// input order. The first error wins (by index, not by completion time,
// so the reported error is deterministic too); remaining slots are
// still awaited so no goroutine outlives the call.
func mapOrdered[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	if r == nil || r.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	// Caller-runs policy: a task only spawns when a pool slot is free;
	// otherwise the calling goroutine executes it inline. Scenarios nest
	// (Figure 3 → Table4At → native/SGX pair) on the same pool, and a
	// blocking acquire could leave every slot held by a parent waiting
	// to spawn a child. Caller-runs keeps the caller always making
	// progress, so saturation degrades to serial instead of deadlock.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case r.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-r.sem }()
				out[i], errs[i] = fn(i)
			}(i)
		default:
			out[i], errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pair runs two independent scenario legs concurrently (when the pool
// allows) and returns both — the native-vs-SGX shape inside one
// Figure 3 point.
func pair[A, B any](r *Runner, fa func() (A, error), fb func() (B, error)) (A, B, error) {
	var a A
	var b B
	if r == nil || r.workers <= 1 {
		a, err := fa()
		if err != nil {
			return a, b, err
		}
		b, err := fb()
		return a, b, err
	}
	var errA, errB error
	select {
	case r.sem <- struct{}{}:
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { <-r.sem }()
			b, errB = fb()
		}()
		a, errA = fa()
		<-done
	default: // pool saturated: caller-runs, serially
		a, errA = fa()
		if errA == nil {
			b, errB = fb()
		}
	}
	if errA != nil {
		return a, b, errA
	}
	return a, b, errB
}

// Section is one independently computable unit of the sgxnet-tables
// transcript: it runs its experiment and renders into a private buffer
// the engine later concatenates in declaration order.
type Section func() ([]byte, error)

// RenderAll computes every section on the runner (each section also
// parallelizes internally through the same pool) and returns their
// outputs in input order.
func (r *Runner) RenderAll(sections []Section) ([][]byte, error) {
	return mapOrdered(r, len(sections), func(i int) ([]byte, error) {
		return sections[i]()
	})
}
