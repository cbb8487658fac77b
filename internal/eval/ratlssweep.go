package eval

import (
	"fmt"
	"io"
	"sync"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
	"sgxnet/internal/ratls"
)

// RA-TLS attested-channel sweep (DESIGN.md §15): the amortization
// experiment behind the verification cache. An attested endpoint
// admits N client connections from a fixed population of distinct
// peers; the first sight of each certificate is a cold full
// verification (two signature checks over the quote and the proof of
// possession), every later connection is a warm cache hit priced at
// core.CostQuoteCacheLookup. The sweep scales N across four decades
// and reports the per-connection cost split — cold, warm, and
// amortized — in native mode (the verifier runs in the untrusted
// runtime) and SGX mode (the verifier lives in a gate enclave and
// every admission pays an EENTER/EEXIT crossing on top). The
// acceptance bar the golden pins: at 10^6 clients the warm
// per-connection cost is well under 5% of the cold cost.

// ratlsSweepGrid is the canonical sweep.
var ratlsSweepGrid = struct {
	modes   []string
	shards  []int
	clients []int
}{
	modes:   []string{"native", "sgx"},
	shards:  []int{1, 8},
	clients: []int{1_000, 10_000, 100_000, 1_000_000},
}

// ratlsSweepPeers is the distinct attested population per cell: each
// peer enclave mints its own certificate, so every cell pays exactly
// this many cold verifications and admits the rest warm.
const ratlsSweepPeers = 16

// RATLSSweepPoint is one (mode, shards, clients) cell.
type RATLSSweepPoint struct {
	Mode    string // "native" or "sgx"
	Shards  int    // verification-cache lock stripes
	Clients int    // admitted connections
	Peers   int    // distinct certificates (= cold verifications)

	Cold    uint64  // full verifications
	Warm    uint64  // cache hits
	HitRate float64 // warm / (cold + warm)

	ColdCycles uint64 // total cycles of the cold phase
	WarmCycles uint64 // total cycles of the warm phase

	ColdPerConn  uint64 // cold-phase cycles per first-sight connection
	WarmPerConn  uint64 // warm-phase cycles per cached connection
	AmortPerConn uint64 // whole-cell cycles over all N connections

	// WarmOverCold is WarmPerConn over ColdPerConn — the amortization
	// ratio the acceptance bar bounds (≤ 0.05 at 10^6 clients).
	WarmOverCold float64
}

// RATLSSweep runs every grid point as an independent scenario on the
// pool. Each point builds its own platform, peer enclaves, and
// verifier, so the merged results are byte-identical at any worker
// count.
func (r *Runner) RATLSSweep() ([]RATLSSweepPoint, error) {
	type cell struct {
		mode    string
		shards  int
		clients int
	}
	var cells []cell
	for _, mode := range ratlsSweepGrid.modes {
		for _, s := range ratlsSweepGrid.shards {
			for _, c := range ratlsSweepGrid.clients {
				cells = append(cells, cell{mode: mode, shards: s, clients: c})
			}
		}
	}
	return mapOrdered(r, len(cells), func(i int) (RATLSSweepPoint, error) {
		c := cells[i]
		return ratlsSweepPoint(r.trace, r.series, c.mode, c.shards, c.clients)
	})
}

// ratlsSweepSubject is the attested application build the sweep's
// peers run: a minimal program carrying the RA-TLS subject handlers.
func ratlsSweepSubject() *core.Program {
	prog := &core.Program{
		Name:    "ratls-sweep-peer",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil },
		},
	}
	ratls.AddSubjectHandlers(prog)
	return prog
}

// ratlsSweepPoint measures one cell. The rig mints ratlsSweepPeers
// certificates on a seeded platform, then drives the admission
// workload in two phases over the verifying endpoint's meter: a serial
// cold phase (first sight of every certificate) and a warm phase of
// the remaining connections fanned across min(shards, 8) goroutines —
// the sharded cache's concurrency is exercised, and because meters and
// verifier counters are atomic the tallies are independent of
// interleaving. With a series set attached, cache occupancy and
// hit-rate gauges are sampled at the phase boundaries on a
// meter-derived clock.
func ratlsSweepPoint(tr *obs.Trace, set *series.Set, mode string, shards, clients int) (RATLSSweepPoint, error) {
	pt := RATLSSweepPoint{Mode: mode, Shards: shards, Clients: clients, Peers: ratlsSweepPeers}
	if clients < ratlsSweepPeers {
		return pt, fmt.Errorf("eval: ratls sweep needs at least %d clients, got %d", ratlsSweepPeers, clients)
	}
	track := fmt.Sprintf("ratls-sweep/mode=%s/shards=%d/clients=%d", mode, shards, clients)

	arch, err := core.NewSigner()
	if err != nil {
		return pt, err
	}
	plat, err := core.NewPlatform("ratls-sweep", core.PlatformConfig{ArchSigner: arch.MRSigner(), Seed: []byte(track)})
	if err != nil {
		return pt, err
	}
	mt, err := ratls.NewMinter(plat, arch)
	if err != nil {
		return pt, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return pt, err
	}
	prog := ratlsSweepSubject()
	// Each peer is named, and its gate argument framed, once, not per
	// admission.
	certs := make([][]byte, ratlsSweepPeers)
	peers := make([]string, ratlsSweepPeers)
	frames := make([][]byte, ratlsSweepPeers)
	for i := range certs {
		peers[i] = fmt.Sprintf("peer-%d", i)
		enc, err := plat.Launch(prog, signer)
		if err != nil {
			return pt, err
		}
		if _, certs[i], err = mt.Mint(enc); err != nil {
			return pt, err
		}
		frames[i] = ratls.EncodeAdmit(peers[i], certs[i])
	}

	v := ratls.NewVerifier(attest.Policy{
		AllowedEnclaves: []core.Measurement{core.MeasureProgram(prog)},
		RejectDebug:     true,
	}, shards)
	if tr != nil {
		v.Probe = tr.Registry()
	}

	// The verifying endpoint: a bare meter in native mode, a gate
	// enclave (one ECALL per admission) in SGX mode. Launch costs are
	// drained so the phases measure admission only.
	var meter *core.Meter
	admit := func(i int) error {
		_, err := v.Admit(meter, certs[i], peers[i])
		return err
	}
	switch mode {
	case "native":
		meter = core.NewMeter()
	case "sgx":
		gate, err := plat.Launch(ratls.GateProgram(v), signer)
		if err != nil {
			return pt, err
		}
		meter = gate.Meter()
		meter.SnapshotAndReset()
		admit = func(i int) error {
			_, err := gate.Call(ratls.GateService, frames[i])
			return err
		}
	default:
		return pt, fmt.Errorf("eval: unknown ratls mode %q", mode)
	}

	mc := &meterClock{}
	mc.bind(meter)
	sm := set.Sampler(track)
	sample := func() {
		if sm == nil {
			return
		}
		st := v.Stats()
		now := mc.Now()
		sm.GaugeAt("ratls.cache.entries", now, uint64(st.Entries))
		sm.GaugeAt("ratls.cache.hitrate.pct", now, uint64(st.HitRate()*100))
	}

	// Cold phase: first sight of every certificate, serially.
	sp := tr.Begin(track, "ratls.cold", meter)
	for i := 0; i < ratlsSweepPeers; i++ {
		if err := admit(i); err != nil {
			return pt, fmt.Errorf("eval: cold admission %d: %w", i, err)
		}
	}
	sp.End()
	cold := meter.SnapshotAndReset()
	pt.ColdCycles = cold.Cycles()
	sample()

	// Warm phase: the remaining connections, fanned across the cache's
	// stripes. Each worker owns a residue class of the connection index,
	// so the work partition is deterministic; the shared meter and
	// verifier counters are atomic, so the totals are too.
	warmConns := clients - ratlsSweepPeers
	workers := shards
	if workers > 8 {
		workers = 8
	}
	sp = tr.Begin(track, "ratls.warm", meter)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < warmConns; i += workers {
				j := ratlsSweepPeers + i
				if err := admit(j % ratlsSweepPeers); err != nil {
					errs[w] = fmt.Errorf("eval: warm admission %d: %w", j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sp.End()
	for _, err := range errs {
		if err != nil {
			return pt, err
		}
	}
	warm := meter.SnapshotAndReset()
	pt.WarmCycles = warm.Cycles()
	sample()

	st := v.Stats()
	pt.Cold, pt.Warm, pt.HitRate = st.Cold, st.Warm, st.HitRate()
	pt.ColdPerConn = pt.ColdCycles / uint64(ratlsSweepPeers)
	if warmConns > 0 {
		pt.WarmPerConn = pt.WarmCycles / uint64(warmConns)
	}
	pt.AmortPerConn = (pt.ColdCycles + pt.WarmCycles) / uint64(clients)
	if pt.ColdPerConn > 0 {
		pt.WarmOverCold = float64(pt.WarmPerConn) / float64(pt.ColdPerConn)
	}

	tr.Total(track, "run.total", cold.Add(warm))
	if reg := tr.Registry(); reg != nil {
		reg.Add("ratls.sweep.cold", st.Cold)
		reg.Add("ratls.sweep.warm", st.Warm)
		reg.Add("ratls.sweep.rejects", st.Rejects)
	}
	return pt, nil
}

// RenderRATLSSweep prints the sweep in its canonical order.
func RenderRATLSSweep(w io.Writer, pts []RATLSSweepPoint) {
	fmt.Fprintln(w, "Attested channels (RA-TLS): per-connection verification cost, cold vs warm")
	fmt.Fprintf(w, "(%d distinct attested peers per cell; the verification cache admits the rest warm)\n", ratlsSweepPeers)
	tw := newTab(w)
	fmt.Fprintln(tw, "mode\tshards\tclients\tcold\twarm\thit-rate\tcold/conn\twarm/conn\tamortized/conn\twarm÷cold")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.4f\t%s\t%s\t%s\t%.4f%%\n",
			p.Mode, p.Shards, p.Clients, p.Cold, p.Warm, p.HitRate,
			fmtM(p.ColdPerConn), fmtM(p.WarmPerConn), fmtM(p.AmortPerConn),
			p.WarmOverCold*100)
	}
	tw.Flush()
}
