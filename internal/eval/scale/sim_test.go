package scale

import (
	"reflect"
	"runtime"
	"testing"
)

func mustRun(t *testing.T, spec string) Result {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunSDNShape: the SDN machine's event count is exact — three
// events per update (arrive, controller, install) plus one gossip
// ingest per incident peering edge per update — and the modeled
// overhead sits in the paper's Figure 3 band.
func TestRunSDNShape(t *testing.T) {
	r := mustRun(t, "sdn:ases=8,updates=2,rate=100,seed=42,edges=0-1|1-2|2-3")
	ops := 16
	if r.Ops != ops {
		t.Fatalf("ops %d, want %d", r.Ops, ops)
	}
	// Each edge contributes two adjacency entries, each visited once
	// per update round of its AS.
	wantEvents := uint64(3*ops + 2*2*3)
	if r.Events != wantEvents {
		t.Fatalf("events %d, want %d", r.Events, wantEvents)
	}
	if r.PeakLive < 1 || r.Makespan == 0 || r.MeanLatency() == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if ov := r.Overhead(); ov < 1.2 || ov > 3 {
		t.Fatalf("SDN overhead %.2f outside the plausible Figure 3 band", ov)
	}
	if r.Native.SGXU != 0 {
		t.Fatalf("native build charged %d SGX instructions", r.Native.SGXU)
	}
	// No edges -> exactly 3 events per op.
	r = mustRun(t, "sdn:ases=8,updates=2,rate=100,seed=42")
	if r.Events != uint64(3*ops) {
		t.Fatalf("edge-free events %d, want %d", r.Events, 3*ops)
	}
}

// TestRunTorShape: exactly hops+2 events per flow, every flow
// completes, and the per-hop enclave I/O surcharge shows up as a
// multiple of the native cost.
func TestRunTorShape(t *testing.T) {
	r := mustRun(t, "tor:relays=20,flows=500,hops=3,rate=400,seed=7,arrival=poisson")
	if r.Ops != 500 {
		t.Fatalf("ops %d, want 500", r.Ops)
	}
	if want := uint64(500 * (3 + 2)); r.Events != want {
		t.Fatalf("events %d, want %d", r.Events, want)
	}
	if ov := r.Overhead(); ov < 2 || ov > 8 {
		t.Fatalf("Tor overhead %.2f outside the plausible band", ov)
	}
	if r.MeanLatency() == 0 || r.Makespan == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
}

// TestRunDeterministic: byte-identical results across repeated runs of
// the same spec — the property the sweep's goldens lean on.
func TestRunDeterministic(t *testing.T) {
	for _, spec := range []string{
		"sdn:ases=64,updates=4,rate=100,seed=42,edges=0-1|1-2|2-3|3-0",
		"tor:relays=100,flows=2000,hops=3,rate=400,seed=7,arrival=bursty",
	} {
		a := mustRun(t, spec)
		b := mustRun(t, spec)
		if a.Spec.String() != b.Spec.String() {
			t.Fatalf("%s: spec diverged", spec)
		}
		a.Spec, b.Spec = Spec{}, Spec{}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: results diverge:\n%+v\n%+v", spec, a, b)
		}
	}
}

// TestRunPathsDistinct: every simulated circuit uses distinct relays,
// including the tight Hosts == Hops corner where rejection sampling
// falls back to scanning.
func TestRunPathsDistinct(t *testing.T) {
	s, err := ParseSpec("tor:relays=3,flows=50,hops=3,rate=10,seed=5,arrival=fixed")
	if err != nil {
		t.Fatal(err)
	}
	sim := newTorSim(s, nil, nil)
	for idx := 0; idx < 50; idx++ {
		sim.fillPath(idx)
		seen := map[int]bool{}
		for _, r := range sim.path {
			if r < 0 || r >= s.Hosts {
				t.Fatalf("flow %d: relay %d out of range", idx, r)
			}
			if seen[r] {
				t.Fatalf("flow %d: relay %d repeated in path %v", idx, r, sim.path)
			}
			seen[r] = true
		}
	}
}

// TestRunBacklogIsGenuine: lazy arrival injection keeps the heap at
// the real in-flight backlog, not the schedule length — a cell whose
// ops arrive slower than they drain must show a tiny peak.
func TestRunBacklogIsGenuine(t *testing.T) {
	// 1 op per 100 Mcycles; each op needs ~20 Mcycles of controller
	// time, so nothing ever queues behind the arrival chain.
	r := mustRun(t, "sdn:ases=16,updates=2,rate=0.01,seed=1")
	if r.PeakLive > 3 {
		t.Fatalf("peak live %d for an idle cell — arrival injection is eager", r.PeakLive)
	}
}

// TestScaleCellAllocBound: the saturated 100-relay Tor cell, the scale
// sweep's largest backlog (89,243 events live at once), allocates under
// 14 MB in all. Its event heap is most of that, so a fatter event
// record shows here first; with 40-byte events it took 17.6 MB.
func TestScaleCellAllocBound(t *testing.T) {
	sp, err := ParseSpec("tor:relays=100,flows=100000,hops=3,rate=4000,seed=7,arrival=poisson")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 14_000_000
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("cell allocated %d bytes (peak live %d events), want < %d", got, res.PeakLive, bound)
	}
}
