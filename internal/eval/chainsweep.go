package eval

import (
	"fmt"
	"io"
	"strings"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/nfchain"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
	"sgxnet/internal/ratls"
	"sgxnet/internal/tlslite"
)

// Trusted NF-chain sweep (DESIGN.md §16): the composition experiment.
// A packet mix runs through enclave-hosted middlebox pipelines of depth
// 1/2/4/8 — classify, header-filter, DPI, NAT rewrite, re-encrypt —
// routed by an in-enclave rule engine whose table is padded to 16/256/
// 4096 entries. Every hop is one enclave crossing: synchronously at
// batch 1, or amortized through per-stage xcall rings and batched
// egress at batch 16/64. Hop admission rides one shared RA-TLS verifier
// (1 cold + N−1 warm). The native column runs the identical stages and
// rules on a bare meter. The acceptance bar the golden pins: per-hop
// crossing cost at batch ≥16 is strictly below the sync cost at every
// depth, and at depth 8 the rule table — not the crossings — is the
// dominant cost axis.

// chainSweepGrid is the canonical sweep.
var chainSweepGrid = struct {
	depths  []int
	batches []int // SGX cells; native is the batchless baseline column
	rules   []int
}{
	depths:  []int{1, 2, 4, 8},
	batches: []int{1, 16, 64},
	rules:   []int{16, 256, 4096},
}

// chainSweepPackets is the traffic per cell.
const chainSweepPackets = 64

// ChainSweepPoint is one (mode, depth, batch, rules) cell.
type ChainSweepPoint struct {
	Mode  string // "native" or "sgx"
	Depth int    // chain stages
	Batch int    // xcall/egress batch (0 for native)
	Rules int    // rule-table entries

	Packets   int
	Hops      uint64 // stage invocations (incl. mirror copies)
	Delivered uint64
	Dropped   uint64
	Mirrored  uint64
	Alerts    uint64

	AdmitCold   uint64 // RA-TLS full verifications (sgx cells: 1)
	AdmitWarm   uint64 // cache hits (sgx cells: depth−1)
	AdmitCycles uint64 // admission-phase cycles across the chain

	TotalCycles uint64 // process-phase cycles
	PerPacket   uint64 // process cycles per injected packet
	PerHop      uint64 // process cycles per hop
	// CrossPerHop is the pure crossing bill per hop: every SGX-usermode
	// instruction of the process phase at 10K cycles each, over hops.
	// This is the quantity batching must crush.
	CrossPerHop uint64
	// RuleCycles is the rule engine's share of the process phase
	// (examined × CostRuleEval normal instructions), RuleShare its
	// fraction of TotalCycles.
	RuleCycles uint64
	RuleShare  float64
}

// ChainSweep runs every grid point as an independent scenario on the
// pool. Each point builds its own network, platform, stage enclaves,
// and verifier, so the merged results are byte-identical at any worker
// count.
func (r *Runner) ChainSweep() ([]ChainSweepPoint, error) {
	type cell struct {
		mode  string
		depth int
		batch int
		rules int
	}
	var cells []cell
	for _, d := range chainSweepGrid.depths {
		for _, ru := range chainSweepGrid.rules {
			cells = append(cells, cell{mode: "native", depth: d, rules: ru})
			for _, b := range chainSweepGrid.batches {
				cells = append(cells, cell{mode: "sgx", depth: d, batch: b, rules: ru})
			}
		}
	}
	return mapOrdered(r, len(cells), func(i int) (ChainSweepPoint, error) {
		c := cells[i]
		return chainSweepPoint(r.trace, r.series, c.mode, c.depth, c.batch, c.rules)
	})
}

// chainSweepKeys returns the deterministic session keys of generation g
// (the same fixed byte pattern the xcall sweep pins its TLS rig with).
func chainSweepKeys(g byte) tlslite.Keys {
	var k tlslite.Keys
	for i := 0; i < 16; i++ {
		k.EncC2S[i] = byte(i) + g
		k.EncS2C[i] = byte(i+16) + g
	}
	for i := 0; i < 32; i++ {
		k.MacC2S[i] = byte(i+32) + g
		k.MacS2C[i] = byte(i+64) + g
	}
	return k
}

var chainSweepPatterns = []string{"malware", "exfiltrate"}

// chainSweepStages builds the stage list for a depth. Deeper chains
// rotate keys twice: dpi holds generation 0, the first re-encrypt
// rotates 0→1, the second DPI inspects under generation 1, and the
// final re-encrypt rotates 1→2.
func chainSweepStages(depth int) ([]nfchain.Stage, error) {
	dpi := func(name string, gen byte) (nfchain.Stage, error) {
		return nfchain.NewDPIStage(name, chainSweepKeys(gen), chainSweepPatterns)
	}
	switch depth {
	case 1:
		return []nfchain.Stage{nfchain.NewClassify("classify")}, nil
	case 2:
		d, err := dpi("dpi", 0)
		if err != nil {
			return nil, err
		}
		return []nfchain.Stage{nfchain.NewClassify("classify"), d}, nil
	case 4:
		d, err := dpi("dpi", 0)
		if err != nil {
			return nil, err
		}
		return []nfchain.Stage{
			nfchain.NewClassify("classify"),
			nfchain.NewHeaderFilter("filter", 23),
			d,
			nfchain.NewReencrypt("reencrypt", chainSweepKeys(0), chainSweepKeys(1)),
		}, nil
	case 8:
		d0, err := dpi("dpi", 0)
		if err != nil {
			return nil, err
		}
		d1, err := dpi("dpi2", 1)
		if err != nil {
			return nil, err
		}
		return []nfchain.Stage{
			nfchain.NewClassify("classify"),
			nfchain.NewHeaderFilter("filter", 23),
			d0,
			nfchain.NewTransform("nat", 55555, 0),
			nfchain.NewReencrypt("reencrypt", chainSweepKeys(0), chainSweepKeys(1)),
			d1,
			nfchain.NewTransform("nat2", 55556, 0),
			nfchain.NewReencrypt("reencrypt2", chainSweepKeys(1), chainSweepKeys(2)),
		}, nil
	}
	return nil, fmt.Errorf("eval: chain sweep has no %d-stage layout", depth)
}

// chainSweepRules builds the rule table: a deny-list prefix of filler
// rules that never match the traffic (flows start at 10M), then the
// handful of meaningful rules. Filler-first means the engine walks
// essentially the whole table at every hop — rule-set size R costs
// ~R×CostRuleEval per packet per hop, which is exactly the axis the
// sweep stresses.
func chainSweepRules(depth, rules int) string {
	var base []string
	switch {
	case depth >= 4:
		base = append(base,
			"at classify match proto=17 -> forward:dpi", // UDP skips the filter
			"at classify match tag=dns -> mirror:dpi",   // DNS-over-TCP audited out of band
			"at filter match tag=blocked -> drop",
			"at dpi match tag=malware -> drop")
	case depth >= 2:
		base = append(base,
			"at classify match dst=23 -> drop",
			"at classify match tag=dns -> mirror:dpi",
			"at dpi match tag=malware -> drop")
	default:
		base = append(base, "at classify match dst=23 -> drop")
	}
	if depth >= 8 {
		base = append(base, "at dpi2 match tag=malware -> drop")
	}
	lines := make([]string, 0, rules)
	for i := 0; i < rules-len(base); i++ {
		lines = append(lines, fmt.Sprintf("at classify match flow=%d -> drop", 10_000_000+i))
	}
	lines = append(lines, base...)
	return strings.Join(lines, "\n")
}

// chainSweepTraffic builds the deterministic packet mix: TLS records
// sealed under generation-0 keys (every 8th plaintext carries a DPI
// pattern), destination ports cycling 443/80/53/23 (23 is the deny
// list), and DNS split between UDP (forward rule) and TCP (mirror
// rule). Sealing happens on a scratch meter — traffic generation is
// not part of any cell's bill.
func chainSweepTraffic() ([]nfchain.Packet, error) {
	codec := tlslite.NewCodec(chainSweepKeys(0))
	scratch := core.NewMeter()
	ports := [4]uint16{443, 80, 53, 23}
	pkts := make([]nfchain.Packet, 0, chainSweepPackets)
	for i := 0; i < chainSweepPackets; i++ {
		dst := ports[i%4]
		proto := uint8(6)
		if dst == 53 && i%8 < 4 {
			proto = 17
		}
		plain := fmt.Sprintf("chain packet %04d routine payload padding bytes", i)
		if i%8 == 5 {
			plain = fmt.Sprintf("chain packet %04d carrying malware signature", i)
		}
		rec, err := codec.Seal(scratch, tlslite.ClientToServer, uint64(i), []byte(plain))
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, nfchain.Packet{
			Flow:    uint32(i),
			SrcPort: uint16(40000 + i),
			DstPort: dst,
			Proto:   proto,
			Payload: rec,
		})
	}
	return pkts, nil
}

// chainSweepHead is the chain-head build whose single certificate every
// hop verifies through the shared verifier.
func chainSweepHead() *core.Program {
	prog := &core.Program{
		Name:    "nfchain-head",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil },
		},
	}
	ratls.AddSubjectHandlers(prog)
	return prog
}

// chainSweepPoint measures one cell: build the chain, admit the head
// certificate at every hop (sgx cells), reset the meters, then drive
// the packet mix and read the process-phase bill.
func chainSweepPoint(tr *obs.Trace, set *series.Set, mode string, depth, batch, rules int) (ChainSweepPoint, error) {
	pt := ChainSweepPoint{Mode: mode, Depth: depth, Batch: batch, Rules: rules, Packets: chainSweepPackets}
	track := fmt.Sprintf("chain-sweep/mode=%s/depth=%d/batch=%d/rules=%d", mode, depth, batch, rules)

	stages, err := chainSweepStages(depth)
	if err != nil {
		return pt, err
	}
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	rs, err := nfchain.CompileText(chainSweepRules(depth, rules), names)
	if err != nil {
		return pt, err
	}
	pkts, err := chainSweepTraffic()
	if err != nil {
		return pt, err
	}

	mc := &meterClock{}
	sm := set.Sampler(track)
	var probe core.Probe
	if tr != nil {
		probe = tr.Registry()
	}

	var meters []*core.Meter
	var admitTally core.Tally
	process := func() error { return nil }
	var readStats func() nfchain.Stats
	var readTally func() core.Tally

	switch mode {
	case "native":
		meter := core.NewMeter()
		mc.bind(meter)
		var smp core.SampleProbe
		if sm != nil {
			smp = sm
		}
		nat, err := nfchain.NewNative(stages, rs, meter, probe, smp, mc.Now)
		if err != nil {
			return pt, err
		}
		meters = []*core.Meter{meter}
		process = func() error {
			for i := range pkts {
				p := pkts[i]
				if err := nat.Process(&p); err != nil {
					return fmt.Errorf("eval: native chain packet %d: %w", i, err)
				}
			}
			return nil
		}
		readStats = nat.Stats
		readTally = nat.Tally

	case "sgx":
		arch, err := core.NewSigner()
		if err != nil {
			return pt, err
		}
		plat, err := core.NewPlatform("chain-sweep", core.PlatformConfig{ArchSigner: arch.MRSigner(), Seed: []byte(track)})
		if err != nil {
			return pt, err
		}
		// Closed when the point returns, after its last meter read.
		net := netsim.New()
		defer net.Close()
		host, err := net.AddHostWithPlatform("chain", plat)
		if err != nil {
			return pt, err
		}
		sink, err := net.AddHost("sink", core.PlatformConfig{})
		if err != nil {
			return pt, err
		}
		l, err := sink.Listen("sink")
		if err != nil {
			return pt, err
		}
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				go func() {
					for {
						if _, err := c.Recv(); err != nil {
							return
						}
					}
				}()
			}
		}()

		mt, err := ratls.NewMinter(plat, arch)
		if err != nil {
			return pt, err
		}
		signer, err := core.NewSigner()
		if err != nil {
			return pt, err
		}
		headProg := chainSweepHead()
		head, err := plat.Launch(headProg, signer)
		if err != nil {
			return pt, err
		}
		_, cert, err := mt.Mint(head)
		if err != nil {
			return pt, err
		}
		v := ratls.NewVerifier(attest.Policy{
			AllowedEnclaves: []core.Measurement{core.MeasureProgram(headProg)},
			RejectDebug:     true,
		}, 1)
		v.Probe = probe

		var smp core.SampleProbe
		if sm != nil {
			smp = sm
		}
		chain, err := nfchain.New(host, nfchain.Config{
			Stages:   stages,
			Rules:    rs,
			Batch:    batch,
			Verifier: v,
			Signer:   signer,
			Egress:   func() (*netsim.Conn, error) { return host.Dial("sink", "sink") },
			Probe:    probe,
			Series:   smp,
			Clock:    mc.Now,
		})
		if err != nil {
			return pt, err
		}
		meters = chain.Meters()
		mc.bind(meters...)

		// Admission phase: one cold verification at the first hop,
		// depth−1 warm hits at the rest, all on the shared verifier.
		sp := tr.Begin(track, "chain.admit", meters...)
		admitTally, err = chain.Admit("chain-head", cert)
		sp.End()
		if err != nil {
			return pt, err
		}
		st := v.Stats()
		pt.AdmitCold, pt.AdmitWarm = st.Cold, st.Warm
		// Drain launch + admission residue so the process phase
		// measures packet work alone.
		chain.ResetMeters()

		process = func() error {
			for i := range pkts {
				p := pkts[i]
				if err := chain.Process(&p); err != nil {
					return fmt.Errorf("eval: sgx chain packet %d: %w", i, err)
				}
			}
			return chain.Flush()
		}
		readStats = chain.Stats
		readTally = chain.Tally

	default:
		return pt, fmt.Errorf("eval: unknown chain mode %q", mode)
	}

	pt.AdmitCycles = admitTally.Cycles()

	sp := tr.Begin(track, "chain.process", meters...)
	if err := process(); err != nil {
		return pt, err
	}
	sp.End()

	// For sgx cells Tally() reads the cumulative hop meters; ResetMeters
	// above made that snapshot exactly the process phase.
	stats := readStats()
	total := readTally()
	pt.Hops = stats.Processed
	pt.Delivered = stats.Delivered
	pt.Dropped = stats.Dropped
	pt.Mirrored = stats.Mirrored
	pt.Alerts = stats.Alerts
	pt.TotalCycles = total.Cycles()
	pt.RuleCycles = core.CyclesOf(0, stats.RulesExamined*core.CostRuleEval)
	if pt.Packets > 0 {
		pt.PerPacket = pt.TotalCycles / uint64(pt.Packets)
	}
	if pt.Hops > 0 {
		pt.PerHop = pt.TotalCycles / pt.Hops
		pt.CrossPerHop = total.SGXU * core.SGXInstructionCycles / pt.Hops
	}
	if pt.TotalCycles > 0 {
		pt.RuleShare = float64(pt.RuleCycles) / float64(pt.TotalCycles)
	}

	if sm != nil {
		now := mc.Now()
		sm.GaugeAt("chain.delivered", now, pt.Delivered)
		sm.GaugeAt("chain.dropped", now, pt.Dropped)
		sm.GaugeAt("chain.alerts", now, pt.Alerts)
	}

	tr.Total(track, "run.total", admitTally.Add(total))
	reg := tr.Registry()
	reg.Add("chain.sweep.hops", pt.Hops)
	reg.Add("chain.sweep.delivered", pt.Delivered)
	reg.Add("chain.sweep.dropped", pt.Dropped)
	reg.Add("chain.sweep.alerts", pt.Alerts)
	return pt, nil
}

// RenderChainSweep prints the sweep in its canonical order.
func RenderChainSweep(w io.Writer, pts []ChainSweepPoint) {
	fmt.Fprintln(w, "Trusted NF chains: crossing amortization vs rule-engine cost, native vs SGX")
	fmt.Fprintf(w, "(%d packets per cell; sgx hops ride xcall rings + batched egress at batch ≥16; admission = 1 cold + depth−1 warm RA-TLS verifications)\n",
		chainSweepPackets)
	tw := newTab(w)
	fmt.Fprintln(tw, "mode\tdepth\tbatch\trules\thops\tdeliv\tdrop\talerts\tadmit c/w\tadmit-cyc\tper-pkt\tper-hop\tcross/hop\trule-share")
	for _, p := range pts {
		batch := fmt.Sprint(p.Batch)
		if p.Mode == "native" {
			batch = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d/%d\t%s\t%s\t%s\t%s\t%.1f%%\n",
			p.Mode, p.Depth, batch, p.Rules, p.Hops, p.Delivered, p.Dropped, p.Alerts,
			p.AdmitCold, p.AdmitWarm, fmtM(p.AdmitCycles),
			fmtM(p.PerPacket), fmtM(p.PerHop), fmtM(p.CrossPerHop), p.RuleShare*100)
	}
	tw.Flush()
}
