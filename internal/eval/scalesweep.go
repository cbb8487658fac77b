package eval

import (
	"fmt"
	"io"

	"sgxnet/internal/eval/scale"
	"sgxnet/internal/netsim/des"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
)

// Discrete-event scale sweep: the goroutine-per-host rigs top out at a
// few dozen hosts because every host is a real goroutine with channels
// and real synchronization; Figure 3's question — how does the
// in-enclave overhead behave as the topology grows? — wants thousands.
// Each cell here replays the same cost model through the des kernel's
// lightweight state machines instead: 4096-AS controllers and
// 3000-relay, million-flow Tor networks simulate in seconds, and every
// cell is byte-deterministic at any worker count because a cell is one
// single-threaded kernel run.
//
// Wall-clock throughput (events/sec) deliberately does not appear in
// the rendered table — it would break the goldens; the benchmark in
// bench/ reports the kernel's rate as des.events_per_s instead.

// scaleSweepSpecs is the canonical grid: the scaled Figure 3 AS axis
// (the smallest cell carries a peering ring so the gossip stage is
// exercised and golden-pinned) and the Tor relay axis with 10^5–10^6
// flow schedules reusing the load generator's arrival processes.
func scaleSweepSpecs() []string {
	return []string{
		"sdn:ases=64,updates=4,rate=100,seed=42,edges=0-1|1-2|2-3|3-4|4-5|5-6|6-7|0-7",
		"sdn:ases=256,updates=4,rate=100,seed=42",
		"sdn:ases=1024,updates=4,rate=100,seed=42",
		"sdn:ases=4096,updates=4,rate=100,seed=42",
		"tor:relays=100,flows=100000,hops=3,rate=4000,seed=7,arrival=poisson",
		"tor:relays=1000,flows=100000,hops=3,rate=4000,seed=7,arrival=bursty",
		"tor:relays=3000,flows=1000000,hops=3,rate=4000,seed=7,arrival=poisson",
	}
}

// ScaleSweepPoint is one cell's reduction.
type ScaleSweepPoint struct {
	Spec     string
	Ops      int
	Events   uint64
	PeakLive int
	Makespan uint64 // virtual cycles

	PerOpNative uint64 // modeled cycles per op, native build
	PerOpSGX    uint64 // modeled cycles per op, SGX build
	Overhead    float64
	MeanLat     uint64 // mean op completion latency, virtual cycles
}

// ScaleSweep runs every grid cell as an independent scenario on the
// pool. A cell is one single-threaded kernel run, so the merged table
// is byte-identical at any worker count.
func (r *Runner) ScaleSweep() ([]ScaleSweepPoint, error) {
	specs := scaleSweepSpecs()
	return mapOrdered(r, len(specs), func(i int) (ScaleSweepPoint, error) {
		return scaleSweepPoint(r.trace, r.series, specs[i])
	})
}

// scaleSweepPoint simulates one cell and records its tallies: one span
// per build on the cell's track, with the run total their exact sum,
// plus sweep-wide event/op counters in the registry. With a series set
// attached, the kernel samples events/backlog per window and the SDN
// machine samples the serialized controller's queueing delay, all on
// the cell's own virtual clock under the cell's track prefix.
func scaleSweepPoint(tr *obs.Trace, set *series.Set, spec string) (ScaleSweepPoint, error) {
	s, err := scale.ParseSpec(spec)
	if err != nil {
		return ScaleSweepPoint{}, err
	}
	track := "scale-sweep/" + spec
	// Assign through the concrete type so a nil set yields a nil
	// interface (not a typed-nil des.Sampler that defeats the kernel's
	// sampling-off fast path).
	var sm des.Sampler
	if sp := set.Sampler(track); sp != nil {
		sm = sp
	}
	res, err := scale.RunSampled(s, sm)
	if err != nil {
		return ScaleSweepPoint{}, err
	}
	pt := ScaleSweepPoint{
		Spec:        spec,
		Ops:         res.Ops,
		Events:      res.Events,
		PeakLive:    res.PeakLive,
		Makespan:    res.Makespan,
		PerOpNative: res.PerOpNativeCycles(),
		PerOpSGX:    res.PerOpSGXCycles(),
		Overhead:    res.Overhead(),
		MeanLat:     res.MeanLatency(),
	}
	tr.RecordSpan(track, "scale.native", res.Native)
	tr.RecordSpan(track, "scale.sgx", res.SGX)
	tr.Total(track, "run.total", res.Native.Add(res.SGX))
	if reg := tr.Registry(); reg != nil {
		reg.Add("scale.sweep.events", res.Events)
		reg.Add("scale.sweep.ops", uint64(res.Ops))
	}
	return pt, nil
}

// RenderScaleSweep prints the sweep in its canonical order.
func RenderScaleSweep(w io.Writer, pts []ScaleSweepPoint) {
	fmt.Fprintln(w, "Discrete-event scale sweep: thousands of hosts, event-driven (no goroutine-per-host)")
	fmt.Fprintln(w, "(per-op modeled cycles from the shared cost model; events/peak/makespan from the kernel;")
	fmt.Fprintln(w, " wall-clock events/sec reported by BenchmarkScaleSweep, not here — it is not deterministic)")
	tw := newTab(w)
	fmt.Fprintln(tw, "spec\tops\tevents\tpeak\tmakespan\top/native\top/sgx\toverhead\tmean-lat")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\t%s\t%.2fx\t%s\n",
			p.Spec, p.Ops, p.Events, p.PeakLive, fmtM(p.Makespan),
			fmtM(p.PerOpNative), fmtM(p.PerOpSGX), p.Overhead, fmtM(p.MeanLat))
	}
	tw.Flush()
}
