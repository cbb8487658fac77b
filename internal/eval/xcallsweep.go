package eval

import (
	"fmt"
	"io"

	"sgxnet/internal/core"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
	"sgxnet/internal/sdnctl"
	"sgxnet/internal/tlslite"
	"sgxnet/internal/topo"
	"sgxnet/internal/tor"
	"sgxnet/internal/xcall"
)

// Switchless-call ablation: the crossing-cost experiment behind the
// paper's per-packet overhead numbers. Every enclave boundary crossing
// costs ~10k cycles (Table 1's EENTER/EEXIT pricing), so a network
// application that crosses per packet pays that toll on its hot path.
// The xcall subsystem replaces synchronous crossings with bounded
// shared-memory rings (internal/xcall); this sweep measures how much
// of the crossing bill each application actually recovers, across ring
// batch targets and spin budgets, against the synchronous baseline —
// the ablation HotCalls and the switchless-call literature run on real
// hardware, reproduced here on the deterministic cost model.
//
// Three applications, one per adoption point:
//
//	tor    — onion relaying: cells enter via call ring, leave via
//	         OCall ring + batched data-plane shim (internal/tor)
//	tls    — record sealing/opening in an enclave-hosted codec
//	         (tlslite.RecordEngine)
//	quote  — the quoting enclave serving remote attestations
//	         (sdnctl.SGXConfig.Xcall)
//
// The metric is crossing cycles: SGX(U) instructions × the 10k-cycle
// SGX instruction price. Batch 1 shows there is no free lunch (every
// drain still pays an amortized crossing); batch ≥16 must recover ≥2×
// for all three applications — the acceptance bar the golden pins.

// xcallSweepGrid is the canonical sweep: for each application, one
// synchronous baseline plus switchless points over batch × spin.
var xcallSweepGrid = struct {
	apps    []string
	batches []int
	spins   []int
}{
	apps:    []string{"tor", "tls", "quote"},
	batches: []int{1, 4, 16, 64},
	spins:   []int{4, 64},
}

// Per-application workload sizes. Small enough to keep the 27-point
// sweep fast, large enough that ring steady state dominates warm-up.
const (
	xcallTorGets    = 12 // circuit round trips through 3 SGX ORs
	xcallTLSRecords = 48 // records sealed and opened (2 ops each)
	xcallQuoteASes  = 8  // AS controllers, one quote request each
)

// XcallSweepPoint is one (app, mode, batch, spin) cell.
type XcallSweepPoint struct {
	App   string
	Mode  string // "sync" or "switchless"
	Batch int    // 0 for sync
	Spin  int    // 0 for sync
	Ops   int    // application operations performed

	SGX         core.Tally  // enclave-side tally over the measured phase
	CrossCycles uint64      // SGX(U) × SGXInstructionCycles — the crossing bill
	Stats       xcall.Stats // ring counters (zero for sync)

	// Speedup is the synchronous baseline's CrossCycles over this
	// point's, per application (1.00 for the baseline itself).
	Speedup float64
}

// XcallSweep runs every grid point as an independent scenario on the
// pool. Each point builds its own network, platform, and meters, so
// the merged results are byte-identical at any worker count. Speedups
// are attached in a deterministic post-pass once every point's
// crossing bill is known.
func (r *Runner) XcallSweep() ([]XcallSweepPoint, error) {
	type cell struct {
		app string
		xc  *xcall.Config // nil = synchronous baseline
	}
	var cells []cell
	for _, app := range xcallSweepGrid.apps {
		cells = append(cells, cell{app: app})
		for _, b := range xcallSweepGrid.batches {
			for _, s := range xcallSweepGrid.spins {
				cells = append(cells, cell{app: app, xc: &xcall.Config{Batch: b, SpinBudget: s}})
			}
		}
	}
	pts, err := mapOrdered(r, len(cells), func(i int) (XcallSweepPoint, error) {
		c := cells[i]
		return xcallSweepPoint(r.trace, r.series, c.app, c.xc)
	})
	if err != nil {
		return nil, err
	}
	// Post-pass: each app's synchronous point is its grid prefix, so the
	// baseline is always available when its switchless points land.
	syncCycles := make(map[string]uint64)
	for _, p := range pts {
		if p.Mode == "sync" {
			syncCycles[p.App] = p.CrossCycles
		}
	}
	for i := range pts {
		if base := syncCycles[pts[i].App]; base > 0 && pts[i].CrossCycles > 0 {
			pts[i].Speedup = float64(base) / float64(pts[i].CrossCycles)
		}
	}
	return pts, nil
}

// meterClock is a virtual clock for rigs whose only time source is
// their meters: it reads their summed accumulated cycles — a pure
// function of the rig's serial metered work, so samples stamped from it
// are deterministic. The xcall rigs configure a ring with Now before
// the engine exists and bind the engine's meter(s) once built (unbound
// it reads zero); the EPC sweep builds one over its tenants' meters.
type meterClock struct{ meters []*core.Meter }

func (mc *meterClock) bind(ms ...*core.Meter) { mc.meters = ms }

func (mc *meterClock) Now() uint64 {
	var c uint64
	for _, m := range mc.meters {
		c += m.Snapshot().Cycles()
	}
	return c
}

// xcallSweepPoint measures one cell on the named application rig. With
// a series set attached, switchless tor and tls cells sample their ring
// occupancy, drain batches, and park/wake counters per window on a
// meter-derived clock (the quote rig's engine is owned by the sdnctl
// deployment, which exposes no meter handle before the run — it stays
// unsampled).
func xcallSweepPoint(tr *obs.Trace, set *series.Set, app string, xc *xcall.Config) (XcallSweepPoint, error) {
	pt := XcallSweepPoint{App: app, Mode: "sync"}
	if xc != nil {
		pt.Mode = "switchless"
		pt.Batch = xc.Batch
		pt.Spin = xc.SpinBudget
	}
	track := fmt.Sprintf("xcall-sweep/app=%s/mode=%s", app, pt.Mode)
	if xc != nil {
		track += fmt.Sprintf("/batch=%d/spin=%d", pt.Batch, pt.Spin)
	}
	mc := &meterClock{}
	if sm := set.Sampler(track); sm != nil && xc != nil && app != "quote" {
		xc.Series = &xcall.SeriesConfig{Probe: sm, Clock: mc.Now}
	}

	var err error
	switch app {
	case "tor":
		err = xcallTorRig(tr, track, xc, mc, &pt)
	case "tls":
		err = xcallTLSRig(tr, track, xc, mc, &pt)
	case "quote":
		err = xcallQuoteRig(tr, track, xc, &pt)
	default:
		err = fmt.Errorf("eval: unknown xcall app %q", app)
	}
	if err != nil {
		return pt, err
	}
	pt.CrossCycles = pt.SGX.SGXU * core.SGXInstructionCycles

	tr.Total(track, "run.total", pt.SGX)
	if reg := tr.Registry(); reg != nil {
		reg.Add("xcall.sweep.calls", pt.Stats.Calls)
		reg.Add("xcall.sweep.drains", pt.Stats.Drains)
		reg.Add("xcall.sweep.fallbacks", pt.Stats.Fallbacks)
		reg.Add("xcall.sweep.parks", pt.Stats.Parks)
	}
	return pt, nil
}

// xcallTorRig relays gets through a 3-hop circuit of SGX ORs and
// tallies the relay-side crossings (steady-state relaying only: the
// circuit handshake and attestation stay synchronous by design and are
// excluded by a meter reset).
func xcallTorRig(tr *obs.Trace, track string, xc *xcall.Config, mc *meterClock, pt *XcallSweepPoint) error {
	tn, err := tor.Deploy(tor.NetworkConfig{
		Mode: tor.ModeSGXORs, Authorities: 1, Relays: 2, Exits: 1, Seed: 1, Xcall: xc,
	})
	if err != nil {
		return err
	}
	defer tn.Close()
	c, err := tn.NewClient("client", 11)
	if err != nil {
		return err
	}
	consensus, err := tn.Discover(c)
	if err != nil {
		return err
	}
	path, err := c.PickPath(consensus, 3)
	if err != nil {
		return err
	}
	circ, err := c.BuildCircuit(path)
	if err != nil {
		return err
	}
	defer circ.Close()
	meters := make([]*core.Meter, 0, len(tn.ORs))
	for _, o := range tn.ORs {
		o.Enclave().Meter().SnapshotAndReset()
		meters = append(meters, o.Enclave().Meter())
	}
	mc.bind(meters...)
	sp := tr.Begin(track, "xcall.relay", meters...)
	for i := 0; i < xcallTorGets; i++ {
		resp, err := circ.Get(tor.WebHost+"|"+tor.WebService, []byte(fmt.Sprintf("req-%d", i)))
		if err != nil {
			return err
		}
		if string(resp) != fmt.Sprintf("content:req-%d", i) {
			return fmt.Errorf("eval: tor rig get %d: %q", i, resp)
		}
	}
	tn.FlushXcall()
	sp.End()
	pt.Ops = xcallTorGets
	for _, m := range meters {
		m.Settle()
		pt.SGX = pt.SGX.Add(m.Snapshot())
	}
	pt.Stats = tn.XcallStats()
	return nil
}

// xcallTLSRig seals and opens records through an enclave-hosted codec.
func xcallTLSRig(tr *obs.Trace, track string, xc *xcall.Config, mc *meterClock, pt *XcallSweepPoint) error {
	plat, err := core.NewPlatform("xcall-tls", core.PlatformConfig{Seed: []byte(track)})
	if err != nil {
		return err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return err
	}
	var keys tlslite.Keys
	for i := range keys.EncC2S {
		keys.EncC2S[i] = byte(i)
		keys.EncS2C[i] = byte(i + 16)
	}
	for i := range keys.MacC2S {
		keys.MacC2S[i] = byte(i + 32)
		keys.MacS2C[i] = byte(i + 64)
	}
	eng, err := tlslite.NewRecordEngine(plat, signer, keys, xc)
	if err != nil {
		return err
	}
	eng.Meter().SnapshotAndReset()
	mc.bind(eng.Meter())
	sp := tr.Begin(track, "xcall.records", eng.Meter())
	for seq := uint64(0); seq < xcallTLSRecords; seq++ {
		rec, err := eng.Seal(tlslite.ClientToServer, seq, []byte("application data"))
		if err != nil {
			return err
		}
		if _, err := eng.Open(tlslite.ClientToServer, seq, rec); err != nil {
			return err
		}
	}
	eng.Flush()
	sp.End()
	pt.Ops = 2 * xcallTLSRecords
	pt.SGX = eng.Meter().Snapshot()
	pt.Stats = eng.XcallStats()
	return nil
}

// xcallQuoteRig serves one quote per AS controller through the SDN
// deployment's controller-host quoting enclave.
func xcallQuoteRig(tr *obs.Trace, track string, xc *xcall.Config, pt *XcallSweepPoint) error {
	tp, err := topo.Random(topo.Config{N: xcallQuoteASes, Seed: 42, PrefJitter: true})
	if err != nil {
		return err
	}
	rep, err := sdnctl.RunSGX(tp, sdnctl.SGXConfig{Xcall: xc})
	if err != nil {
		return err
	}
	pt.Ops = rep.Attestations
	pt.SGX = rep.QuoteServing
	pt.Stats = rep.QuoteXcall
	// The deployment rig owns its meters; record the serving tally as a
	// span after the fact so the track still carries the phase.
	tr.RecordSpan(track, "xcall.serve", pt.SGX)
	return nil
}

// RenderXcallSweep prints the sweep in its canonical order.
func RenderXcallSweep(w io.Writer, pts []XcallSweepPoint) {
	fmt.Fprintln(w, "Switchless-call ablation: crossing cycles vs synchronous EENTER/EEXIT")
	fmt.Fprintf(w, "(tor: %d circuit gets; tls: %d records sealed+opened; quote: %d attestations)\n",
		xcallTorGets, xcallTLSRecords, xcallQuoteASes)
	tw := newTab(w)
	fmt.Fprintln(tw, "app\tmode\tbatch\tspin\tops\tsgx\tcross-cycles\tring-calls\tdrains\tfallbacks\tspeedup")
	for _, p := range pts {
		batch, spin := "-", "-"
		if p.Mode == "switchless" {
			batch, spin = fmt.Sprint(p.Batch), fmt.Sprint(p.Spin)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%s\t%d\t%d\t%d\t%.2f×\n",
			p.App, p.Mode, batch, spin, p.Ops,
			p.SGX.SGXU, fmtM(p.CrossCycles),
			p.Stats.Calls, p.Stats.Drains, p.Stats.Fallbacks, p.Speedup)
	}
	tw.Flush()
}
