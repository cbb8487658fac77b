package nfchain

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/ratls"
	"sgxnet/internal/xcall"
)

// ECALL entry points every stage enclave serves.
const (
	// ProcService processes one packet: strict unmarshal → stage body →
	// rule engine → verdict (and egress emission on terminate).
	ProcService = "chain.proc"
	// AdmitService admits the chain head's RA-TLS certificate through
	// the chain's shared verifier and opens the stage for traffic.
	AdmitService = "chain.admit"
)

// maxHops bounds one Process call's stage invocations. Compile proves
// the routing graph acyclic (every edge goes strictly forward), so each
// routed item finishes in ≤ len(stages) hops and the bound is pure
// belt-and-braces against a future engine bug, not load-bearing policy.
const maxHops = 1 << 16

// Stats is a chain's lifetime packet accounting, updated by the driver
// on the caller's goroutine (deterministic for a serial packet feed).
type Stats struct {
	Processed     uint64 // stage invocations (hops)
	Delivered     uint64 // packets emitted on egress (terminate)
	Dropped       uint64
	Forwarded     uint64 // forward actions, explicit or fallthrough
	Mirrored      uint64
	RulesExamined uint64 // total rules the engine walked (CostRuleEval each)
	RuleMatches   uint64
	Alerts        uint64 // DPI malware tags
}

// Config wires a chain together.
type Config struct {
	// Stages, in chain order. Names must be unique (Compile enforces
	// this through Rules).
	Stages []Stage
	// Rules must be compiled against exactly Stages' names in order.
	Rules *RuleSet
	// Batch selects the inter-hop transport: ≤1 means one synchronous
	// ECALL per hop (and synchronous per-packet egress OCALLs); ≥2
	// routes hops through per-stage xcall rings with this drain target
	// and batches egress through an OCALL ring + IOShim window of the
	// same size.
	Batch int
	// Verifier, when non-nil, gates every hop: ProcService refuses
	// traffic until Admit has presented a certificate this verifier
	// accepts. One verifier shared by all N hops is the point — the
	// chain pays 1 cold verification and N−1 warm cache hits.
	Verifier *ratls.Verifier
	// Signer signs the stage enclaves (nil = fresh signer).
	Signer *core.Signer
	// Egress dials one sink connection per stage for terminate
	// emissions. Nil disables egress: terminated packets are counted
	// but not emitted (unit-test convenience).
	Egress func() (*netsim.Conn, error)
	// Probe receives chain.* observations (nil = the platform's probe).
	Probe core.Probe
	// Series, when non-nil, receives per-stage packet counters and
	// queue-depth gauges, plus the rings' occupancy series, timestamped
	// by Clock.
	Series core.SampleProbe
	Clock  func() uint64
}

// hop is one enclave-hosted stage plus its transport plumbing.
type hop struct {
	stage    Stage
	enc      *core.Enclave
	xb       *xcall.Boundary
	shim     *netsim.IOShim // nil without egress
	egressID uint32
	admitted atomic.Bool
}

// Chain is an enclave-hosted NF pipeline: one enclave per stage on a
// shared platform, routed by the compiled rule set. The driver (Process)
// runs host-side — the untrusted dispatcher of the paper's split model —
// while classification, filtering, inspection, rewriting, re-encryption,
// and every rule evaluation happen inside the stage enclaves.
type Chain struct {
	cfg   Config
	plat  *core.Platform
	probe core.Probe
	hops  []*hop
	stats Stats
}

// New launches one enclave per stage on host's platform and wires the
// inter-hop and egress transports according to cfg.Batch.
func New(host *netsim.SimHost, cfg Config) (*Chain, error) {
	if cfg.Rules == nil {
		return nil, fmt.Errorf("nfchain: Config.Rules is required")
	}
	if len(cfg.Stages) != len(cfg.Rules.Stages()) {
		return nil, fmt.Errorf("nfchain: %d stages but rules compiled for %d", len(cfg.Stages), len(cfg.Rules.Stages()))
	}
	for i, s := range cfg.Stages {
		if s.Name() != cfg.Rules.Stages()[i] {
			return nil, fmt.Errorf("nfchain: stage %d is %q but rules compiled for %q", i, s.Name(), cfg.Rules.Stages()[i])
		}
	}
	signer := cfg.Signer
	if signer == nil {
		var err error
		if signer, err = core.NewSigner(); err != nil {
			return nil, err
		}
	}
	plat := host.Platform()
	c := &Chain{cfg: cfg, plat: plat, probe: cfg.Probe}
	if c.probe == nil {
		c.probe = plat.Probe()
	}
	var ringCfg *xcall.Config // nil: synchronous hops
	if cfg.Batch >= 2 {
		ringCfg = &xcall.Config{Batch: cfg.Batch}
		if cfg.Series != nil {
			ringCfg.Series = &xcall.SeriesConfig{Probe: cfg.Series, Clock: cfg.Clock}
		}
	}
	for i, stage := range cfg.Stages {
		h := &hop{stage: stage}
		if cfg.Verifier == nil {
			h.admitted.Store(true)
		}
		prog := c.stageProgram(i, h)
		ratls.AddSubjectHandlers(prog)
		enc, err := plat.Launch(prog, signer)
		if err != nil {
			c.Destroy()
			return nil, fmt.Errorf("nfchain: launch stage %q: %w", stage.Name(), err)
		}
		h.enc = enc
		h.xb = xcall.Attach(enc, ringCfg)
		if cfg.Egress != nil {
			conn, err := cfg.Egress()
			if err != nil {
				enc.Destroy()
				c.Destroy()
				return nil, fmt.Errorf("nfchain: egress dial for stage %q: %w", stage.Name(), err)
			}
			h.shim = netsim.NewIOShim(host, enc.Meter())
			h.egressID = h.shim.Adopt(conn)
			h.shim.SetBatched(h.xb.Batch())
			enc.BindHost(h.xb.Host(h.shim))
		}
		c.hops = append(c.hops, h)
	}
	return c, nil
}

// stageProgram builds one stage's enclave program. The stage index,
// rule set, probe, and admission gate are closed over; the program
// Config carries the stage name so each hop has a distinct measurement.
func (c *Chain) stageProgram(idx int, h *hop) *core.Program {
	return &core.Program{
		Name:    "nfchain-stage",
		Version: "1.0",
		Config:  []byte(fmt.Sprintf("%d:%s", idx, c.cfg.Stages[idx].Name())),
		Handlers: map[string]core.Handler{
			AdmitService: func(env *core.Env, arg []byte) ([]byte, error) {
				if c.cfg.Verifier == nil {
					h.admitted.Store(true)
					return nil, nil
				}
				peer, cert, err := ratls.DecodeAdmit(arg)
				if err != nil {
					return nil, err
				}
				id, err := c.cfg.Verifier.Admit(env.Meter(), cert, peer)
				if err != nil {
					return nil, err
				}
				h.admitted.Store(true)
				if c.probe != nil {
					c.probe.Observe(KindAdmit, 1)
				}
				return id.MREnclave[:], nil
			},
			ProcService: func(env *core.Env, arg []byte) ([]byte, error) {
				// Every check before the stage body runs charges
				// nothing: an unadmitted hop or malformed packet costs
				// the caller only the crossing itself.
				if !h.admitted.Load() {
					return nil, fmt.Errorf("nfchain: stage %q not admitted", h.stage.Name())
				}
				pkt, err := UnmarshalPacket(arg)
				if err != nil {
					return nil, err
				}
				v, alert, err := processOne(env.Meter(), h.stage, c.cfg.Rules, idx, &pkt, c.probe)
				if err != nil {
					return nil, err
				}
				if v.Action == ActTerminate && h.shim != nil {
					wire := AppendPacket(nil, &pkt)
					if _, err := env.OCall("net.send", netsim.EncodeSend(h.egressID, wire)); err != nil {
						return nil, fmt.Errorf("nfchain: egress send: %w", err)
					}
				}
				return encodeVerdict(v, alert, &pkt), nil
			},
		},
	}
}

// processOne is the shared per-hop body: stage logic, alert detection,
// rule evaluation, probe observations. Both hosting modes (enclave
// handler, native driver) run exactly this, so their packet outcomes and
// probe streams are identical and only the metering differs.
func processOne(m *core.Meter, stage Stage, rules *RuleSet, idx int, p *Packet, probe core.Probe) (Verdict, bool, error) {
	prevTag := p.Tag
	if err := stage.Process(m, p); err != nil {
		return Verdict{}, false, err
	}
	alert := p.Tag == TagMalware && prevTag != TagMalware
	v := rules.Evaluate(m, idx, p)
	if probe != nil {
		probe.Observe(KindProcess, 1)
		probe.Observe(KindRuleExamined, uint64(v.Examined))
		if v.Rule >= 0 {
			probe.Observe(KindRuleMatch, 1)
		}
		if alert {
			probe.Observe(KindAlert, 1)
		}
		switch v.Action {
		case ActForward:
			probe.Observe(KindForward, 1)
		case ActMirror:
			probe.Observe(KindMirror, 1)
		case ActDrop:
			probe.Observe(KindDrop, 1)
		case ActTerminate:
			probe.Observe(KindTerminate, 1)
		}
	}
	return v, alert, nil
}

// Verdict wire format: action(1) ‖ target(1) ‖ cont(1) ‖ alert(1) ‖
// matched(1) ‖ examined(4 LE) ‖ [packet wire, forward/mirror only].
// Stage indices ride one byte with 0xFF = none; Compile rejects chains
// of more than maxStages (255) stages, so every index fits below 0xFF.
const verdictHeaderLen = 9

func idxByte(i int) byte {
	if i < 0 {
		return 0xFF
	}
	return byte(i)
}

func encodeVerdict(v Verdict, alert bool, p *Packet) []byte {
	out := make([]byte, verdictHeaderLen, verdictHeaderLen+packetHeaderLen+len(p.Payload))
	out[0] = byte(v.Action)
	out[1] = idxByte(v.Target)
	out[2] = idxByte(v.Cont)
	if alert {
		out[3] = 1
	}
	if v.Rule >= 0 {
		out[4] = 1
	}
	binary.LittleEndian.PutUint32(out[5:], uint32(v.Examined))
	if v.Action == ActForward || v.Action == ActMirror {
		out = AppendPacket(out, p)
	}
	return out
}

func decodeVerdict(raw []byte) (Verdict, bool, Packet, error) {
	if len(raw) < verdictHeaderLen {
		return Verdict{}, false, Packet{}, fmt.Errorf("nfchain: short verdict (%d bytes)", len(raw))
	}
	v := Verdict{
		Action:   Action(raw[0]),
		Target:   -1,
		Cont:     -1,
		Examined: int(binary.LittleEndian.Uint32(raw[5:])),
		Rule:     -1,
	}
	if raw[1] != 0xFF {
		v.Target = int(raw[1])
	}
	if raw[2] != 0xFF {
		v.Cont = int(raw[2])
	}
	if raw[4] == 1 {
		v.Rule = 0 // matched; the index itself stays in-enclave
	}
	alert := raw[3] == 1
	var p Packet
	if v.Action == ActForward || v.Action == ActMirror {
		var err error
		if p, err = UnmarshalPacket(raw[verdictHeaderLen:]); err != nil {
			return Verdict{}, false, Packet{}, err
		}
	}
	return v, alert, p, nil
}

// routed is one work item in the driver queue.
type routed struct {
	stage int
	pkt   Packet
}

// drive is the routing loop both hosting modes share: a FIFO work queue
// of (stage, packet) items, each hop's verdict either retiring the item
// or enqueueing its successors. FIFO order makes the hop sequence — and
// therefore every meter, probe, and series stream — deterministic for a
// given packet.
func drive(run func(stage int, p Packet) (Verdict, Packet, bool, error),
	stats *Stats, series core.SampleProbe, clock func() uint64,
	stageName func(int) string, start Packet) error {
	queue := []routed{{0, start}}
	hops := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if hops++; hops > maxHops {
			return fmt.Errorf("nfchain: hop bound %d exceeded (routing loop?)", maxHops)
		}
		v, out, alert, err := run(cur.stage, cur.pkt)
		if err != nil {
			return err
		}
		stats.Processed++
		stats.RulesExamined += uint64(v.Examined)
		if v.Rule >= 0 {
			stats.RuleMatches++
		}
		if alert {
			stats.Alerts++
		}
		switch v.Action {
		case ActDrop:
			stats.Dropped++
		case ActTerminate:
			stats.Delivered++
		case ActForward:
			stats.Forwarded++
			queue = append(queue, routed{v.Target, out})
		case ActMirror:
			stats.Mirrored++
			mirror := out
			mirror.Payload = append([]byte(nil), out.Payload...)
			queue = append(queue, routed{v.Target, mirror}, routed{v.Cont, out})
		default:
			return fmt.Errorf("nfchain: unknown action %d", v.Action)
		}
		if series != nil {
			var now uint64
			if clock != nil {
				now = clock()
			}
			series.CountAt("chain."+stageName(cur.stage)+".packets", now, 1)
			series.GaugeAt("chain."+stageName(cur.stage)+".qdepth", now, uint64(len(queue)))
		}
	}
	return nil
}

// Admit presents the chain head's certificate to every hop through the
// shared verifier and returns the total admission tally across the
// chain's meters (1 cold verification + N−1 warm hits when the verifier
// cache is empty). Must be called before Process on a gated chain.
func (c *Chain) Admit(peer string, cert []byte) (core.Tally, error) {
	var total core.Tally
	frame, err := ratls.EncodeAdmit(peer, cert)
	if err != nil {
		return total, fmt.Errorf("nfchain: admit: %w", err)
	}
	for _, h := range c.hops {
		pre := h.enc.Meter().Snapshot()
		if _, err := h.enc.Call(AdmitService, frame); err != nil {
			return total, fmt.Errorf("nfchain: admit stage %q: %w", h.stage.Name(), err)
		}
		total = total.Add(h.enc.Meter().Snapshot().Sub(pre))
	}
	return total, nil
}

// Process routes one packet through the chain, starting at stage 0.
func (c *Chain) Process(p *Packet) error {
	return drive(func(stage int, pkt Packet) (Verdict, Packet, bool, error) {
		h := c.hops[stage]
		out, err := h.xb.Call(ProcService, AppendPacket(nil, &pkt))
		if err != nil {
			return Verdict{}, Packet{}, false, err
		}
		v, alert, next, err := decodeVerdict(out)
		return v, next, alert, err
	}, &c.stats, c.cfg.Series, c.cfg.Clock, c.stageName, *p)
}

func (c *Chain) stageName(i int) string { return c.cfg.Stages[i].Name() }

// Flush drains every hop's pending ring descriptors and buffered egress
// batches. Call at phase boundaries before reading meters.
func (c *Chain) Flush() error {
	for _, h := range c.hops {
		if err := h.xb.Flush(); err != nil {
			return err
		}
		if h.shim != nil {
			h.shim.FlushBatch()
		}
	}
	return nil
}

// Stats returns the driver's packet accounting.
func (c *Chain) Stats() Stats { return c.stats }

// XcallStats sums ECALL- and OCALL-ring statistics across all hops.
func (c *Chain) XcallStats() xcall.Stats {
	var total xcall.Stats
	for _, h := range c.hops {
		total = total.Add(h.xb.Stats())
	}
	return total
}

// Tally sums the hop meters (the chain's total modelled work).
func (c *Chain) Tally() core.Tally {
	var total core.Tally
	for _, h := range c.hops {
		total = total.Add(h.enc.Meter().Snapshot())
	}
	return total
}

// ResetMeters zeroes every hop meter (e.g. after the admission phase,
// so the measured phase starts clean).
func (c *Chain) ResetMeters() {
	for _, h := range c.hops {
		h.enc.Meter().SnapshotAndReset()
	}
}

// Hops returns the number of stages.
func (c *Chain) Hops() int { return len(c.hops) }

// Meters returns the per-hop enclave meters in chain order (for trace
// spans and meter-derived clocks).
func (c *Chain) Meters() []*core.Meter {
	ms := make([]*core.Meter, len(c.hops))
	for i, h := range c.hops {
		ms[i] = h.enc.Meter()
	}
	return ms
}

// Destroy tears down every stage enclave.
func (c *Chain) Destroy() {
	for _, h := range c.hops {
		if h.enc != nil {
			h.enc.Destroy()
		}
	}
	c.hops = nil
}

// Native runs the identical stages and rule set without enclaves: every
// stage body and rule evaluation charges one flat meter, there are no
// crossings, and terminate pays only the plain (non-SGX) I/O cost. This
// is the sweep's baseline — the delta to Chain is purely the price of
// enclave hosting.
type Native struct {
	stages []Stage
	rules  *RuleSet
	meter  *core.Meter
	probe  core.Probe
	series core.SampleProbe
	clock  func() uint64
	stats  Stats
}

// NewNative builds the native-hosted chain. probe, series, and clock
// may be nil.
func NewNative(stages []Stage, rules *RuleSet, m *core.Meter, probe core.Probe, series core.SampleProbe, clock func() uint64) (*Native, error) {
	if rules == nil {
		return nil, fmt.Errorf("nfchain: rules are required")
	}
	if len(stages) != len(rules.Stages()) {
		return nil, fmt.Errorf("nfchain: %d stages but rules compiled for %d", len(stages), len(rules.Stages()))
	}
	for i, s := range stages {
		if s.Name() != rules.Stages()[i] {
			return nil, fmt.Errorf("nfchain: stage %d is %q but rules compiled for %q", i, s.Name(), rules.Stages()[i])
		}
	}
	if m == nil {
		m = core.NewMeter()
	}
	return &Native{stages: stages, rules: rules, meter: m, probe: probe, series: series, clock: clock}, nil
}

// Process routes one packet through the native chain.
func (n *Native) Process(p *Packet) error {
	return drive(func(stage int, pkt Packet) (Verdict, Packet, bool, error) {
		v, alert, err := processOne(n.meter, n.stages[stage], n.rules, stage, &pkt, n.probe)
		if err != nil {
			return Verdict{}, Packet{}, false, err
		}
		if v.Action == ActTerminate {
			// The native egress: one plain send syscall, no SGX boundary.
			n.meter.ChargeNormal(core.CostIOCallFixed + core.CostIOPerPacket)
		}
		return v, pkt, alert, nil
	}, &n.stats, n.series, n.clock, func(i int) string { return n.stages[i].Name() }, *p)
}

// Stats returns the driver's packet accounting.
func (n *Native) Stats() Stats { return n.stats }

// Tally returns the native meter total.
func (n *Native) Tally() core.Tally { return n.meter.Snapshot() }
