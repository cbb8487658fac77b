package eval

import (
	"fmt"
	"io"

	"sgxnet/internal/core"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
)

// EPC oversubscription sweep: the experiment the paper's central
// resource constraint implies but never runs. N tenant enclaves share
// one platform whose EPC is deliberately small; each tenant cyclically
// scans a private working set sized relative to its fair share of the
// pageable EPC. Below ratio 1.0 the working sets fit and paging is a
// one-time warm-up; above it every tenant's scan forces encrypted
// EWB/ELDU traffic that the pager charges on the faulting tenant's
// meter. The sweep reports per-op overhead versus a native (no-SGX,
// no-paging) baseline for each (tenants, ratio, policy) point — the
// overhead *shape* under memory pressure, which Stress-SGX and the SGX
// benchmark-suite papers show dominates enclave performance at scale.

// epcSweepOpCompute is the modelled per-op computation (normal
// instructions): enough that the fixed enclave-crossing cost does not
// drown the paging signal, small enough that paging dominates past
// ratio 1.0.
const epcSweepOpCompute = 50_000

// epcSweepFrames is each point's total EPC size. Launching a tenant
// consumes 7 frames of enclave infrastructure (SECS, TCS, one code
// page, four heap pages); the remainder is the pageable budget the
// tenants' working sets compete for.
const epcSweepFrames = 64

// epcSweepPasses is how many times each tenant scans its working set.
// Pass one is the demand-zero warm-up; later passes isolate
// steady-state reload traffic.
const epcSweepPasses = 3

// EPCSweepPoint is one (tenants, working-set ratio, policy) cell.
type EPCSweepPoint struct {
	Tenants    int
	Ratio      float64 // working set / fair share of pageable EPC
	Policy     string
	WorkingSet int // pages per tenant
	Budget     int // pageable frames (after enclave infrastructure)
	Ops        int // touches per tenant (passes × working set)

	Native core.Tally // all tenants' native legs summed
	SGX    core.Tally // all tenants' enclave legs summed
	Stats  core.PagerStats

	PerOpNativeCycles uint64
	PerOpSGXCycles    uint64
	Overhead          float64 // PerOpSGX / PerOpNative
}

// epcSweepGrid is the canonical sweep: tenant counts × working-set
// ratios × the three replacement policies.
var epcSweepGrid = struct {
	tenants  []int
	ratios   []float64
	policies []string
}{
	tenants:  []int{1, 2, 4},
	ratios:   []float64{0.5, 1.0, 1.5, 2.0},
	policies: []string{"clock", "lru", "random"},
}

// epcSweepPolicy instantiates a fresh policy by name. The random
// policy's seed is fixed: the sweep is a deterministic experiment.
func epcSweepPolicy(name string) (core.VictimPolicy, error) {
	switch name {
	case "clock":
		return core.NewClockPolicy(), nil
	case "lru":
		return core.NewLRUPolicy(), nil
	case "random":
		return core.NewRandomPolicy(0x5eed), nil
	default:
		return nil, fmt.Errorf("eval: unknown eviction policy %q", name)
	}
}

// tenantProgram is one tenant's enclave: a single "op" entry point
// performing the modelled unit of work.
func tenantProgram(i int) *core.Program {
	return &core.Program{
		Name:    fmt.Sprintf("epc-tenant-%d", i),
		Version: "1",
		Handlers: map[string]core.Handler{
			"op": func(env *core.Env, arg []byte) ([]byte, error) {
				env.ChargeNormal(epcSweepOpCompute)
				return nil, nil
			},
		},
	}
}

// EPCSweep runs every grid point as an independent scenario on the
// pool. Each point builds its own seeded platform, pager, and meters,
// so the merged results are byte-identical at any worker count.
func (r *Runner) EPCSweep() ([]EPCSweepPoint, error) {
	type cell struct {
		tenants int
		ratio   float64
		policy  string
	}
	var cells []cell
	for _, tn := range epcSweepGrid.tenants {
		for _, ra := range epcSweepGrid.ratios {
			for _, po := range epcSweepGrid.policies {
				cells = append(cells, cell{tn, ra, po})
			}
		}
	}
	return mapOrdered(r, len(cells), func(i int) (EPCSweepPoint, error) {
		c := cells[i]
		return epcSweepPoint(r.trace, r.series, c.tenants, c.ratio, c.policy)
	})
}

// epcSweepPoint measures one cell: the SGX leg (tenant enclaves
// faulting through a shared pager) and the native leg (the same ops
// with no enclave and no EPC constraint). With a series set attached,
// the pager samples per-tenant fault/evict/reload counters and the
// residency gauge per window, stamped by the accumulated tenant meters
// — the cell's own virtual clock.
func epcSweepPoint(tr *obs.Trace, set *series.Set, tenants int, ratio float64, policy string) (EPCSweepPoint, error) {
	pt := EPCSweepPoint{Tenants: tenants, Ratio: ratio, Policy: policy}
	track := fmt.Sprintf("epc-sweep/tenants=%d/ratio=%.1f/policy=%s", tenants, ratio, policy)

	pol, err := epcSweepPolicy(policy)
	if err != nil {
		return pt, err
	}
	// Seeded platform: fused secrets — and therefore evicted-page blobs
	// — are byte-stable across runs, not just the tallies.
	plat, err := core.NewPlatform("epc-sweep", core.PlatformConfig{
		EPCFrames: epcSweepFrames,
		Seed:      []byte(track),
	})
	if err != nil {
		return pt, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return pt, err
	}
	encs := make([]*core.Enclave, tenants)
	for i := range encs {
		if encs[i], err = plat.Launch(tenantProgram(i), signer); err != nil {
			return pt, err
		}
	}
	pt.Budget = plat.EPC().FreeCount()
	pt.WorkingSet = int(ratio * float64(pt.Budget) / float64(tenants))
	if pt.WorkingSet < 1 {
		pt.WorkingSet = 1
	}
	pt.Ops = epcSweepPasses * pt.WorkingSet
	pager := core.NewPager(plat.EPC(), pol)

	// SGX leg: tenants interleave round-robin within each pass — the
	// multi-tenant pressure pattern, where one tenant's faults evict
	// another's pages. Serial execution inside the point keeps the fault
	// sequence (and so every tally) deterministic; parallelism lives at
	// the point level, across independent platforms.
	meters := make([]*core.Meter, tenants)
	for i, e := range encs {
		meters[i] = e.Meter()
		meters[i].SnapshotAndReset() // launch cost is not part of the steady-state comparison
	}
	if sm := set.Sampler(track); sm != nil {
		// The cell has no event loop, so its virtual clock is the summed
		// tenant meters: monotone within the leg (meters only accumulate
		// after the reset above), and a pure function of the serial fault
		// sequence, so the windows are as deterministic as the tallies.
		pager.SetSeries(sm, func() uint64 {
			var c uint64
			for _, m := range meters {
				c += m.Snapshot().Cycles()
			}
			return c
		})
	}
	sp := tr.Begin(track, "sgx", meters...)
	for pass := 0; pass < epcSweepPasses; pass++ {
		for i := 0; i < pt.WorkingSet; i++ {
			for t, e := range encs {
				addr := uint64(i) * core.PageSize
				if _, err := pager.Touch(e.Meter(), e.ID(), addr); err != nil {
					return pt, fmt.Errorf("tenant %d page %d: %w", t, i, err)
				}
				if _, err := e.Call("op", nil); err != nil {
					return pt, err
				}
			}
		}
	}
	sp.End()
	for _, m := range meters {
		pt.SGX = pt.SGX.Add(m.Snapshot())
	}
	pt.Stats = pager.Stats()

	// Native leg: the same op count on plain hosts — no enclave
	// crossings, no EPC, no paging.
	nm := core.NewMeter()
	sp = tr.Begin(track, "native", nm)
	for op := 0; op < tenants*pt.Ops; op++ {
		nm.ChargeNormal(epcSweepOpCompute)
	}
	sp.End()
	pt.Native = nm.Snapshot()

	tr.Total(track, "run.total", pt.SGX.Add(pt.Native))
	totalOps := uint64(tenants * pt.Ops)
	pt.PerOpNativeCycles = pt.Native.Cycles() / totalOps
	pt.PerOpSGXCycles = pt.SGX.Cycles() / totalOps
	pt.Overhead = float64(pt.PerOpSGXCycles) / float64(pt.PerOpNativeCycles)

	// Surface the pager counters in the metric registry (alongside the
	// per-event pager.* counts the probe feeds) so sgxnet-trace -metrics
	// reports residency and paging volume for the whole sweep.
	if reg := tr.Registry(); reg != nil {
		reg.Add("pager.sweep.faults", pt.Stats.Faults)
		reg.Add("pager.sweep.evictions", pt.Stats.Evictions)
		reg.Add("pager.sweep.reloads", pt.Stats.Reloads)
		reg.Add("pager.sweep.peak_resident", uint64(pt.Stats.Peak))
	}
	return pt, nil
}

// RenderEPCSweep prints the sweep in its canonical order.
func RenderEPCSweep(w io.Writer, pts []EPCSweepPoint) {
	fmt.Fprintln(w, "EPC oversubscription sweep: per-op overhead vs native under memory pressure")
	fmt.Fprintf(w, "(%d-frame EPC, %d passes per tenant; ws = working-set pages per tenant)\n", epcSweepFrames, epcSweepPasses)
	tw := newTab(w)
	fmt.Fprintln(tw, "tenants\tws/share\tpolicy\tws\tfaults\tevict\treload\thit%\tnative/op\tsgx/op\toverhead")
	for _, p := range pts {
		touches := p.Stats.Hits + p.Stats.Faults
		hitPct := 0.0
		if touches > 0 {
			hitPct = 100 * float64(p.Stats.Hits) / float64(touches)
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%s\t%d\t%d\t%d\t%d\t%.1f\t%s\t%s\t%.2f×\n",
			p.Tenants, p.Ratio, p.Policy, p.WorkingSet,
			p.Stats.Faults, p.Stats.Evictions, p.Stats.Reloads, hitPct,
			fmtM(p.PerOpNativeCycles), fmtM(p.PerOpSGXCycles), p.Overhead)
	}
	tw.Flush()
}
