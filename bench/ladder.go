package main

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/bgp"
	"sgxnet/internal/core"
	"sgxnet/internal/eval/scale"
	"sgxnet/internal/netsim"
	"sgxnet/internal/netsim/des"
	"sgxnet/internal/nfchain"
	"sgxnet/internal/obs"
	"sgxnet/internal/ratls"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/tlslite"
	"sgxnet/internal/topo"
	"sgxnet/internal/tor"
	"sgxnet/internal/xcall"
)

// The layer ladder times one public call of each layer in isolation,
// after "A Comprehensive Benchmark Suite for Intel SGX": wall ns/op,
// heap allocations/op and, where the call is metered, modelled
// cycles/op. It does not depend on the workload, so every traced run
// measures it, next to the per-request counters of its own workload.

// ladderMinDur is the least wall time each timed row runs for.
const ladderMinDur = 100 * time.Millisecond

// innerOps is how many seals or unseals one ECALL of the seal rows does,
// so the rows time sealing rather than the crossing around it.
const innerOps = 64

// timeOp calls op once untimed, then in doubling batches until
// ladderMinDur has passed, and returns wall ns and heap allocations per
// call.
func timeOp(op func() error) (ns, allocs float64, err error) {
	if err := op(); err != nil {
		return 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n := 0
	t0 := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		n += batch
		if time.Since(t0) >= ladderMinDur {
			break
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(el.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// cyclesPer is the modelled cycles m is charged per call over n calls.
func cyclesPer(m *core.Meter, n int, op func() error) (float64, error) {
	t0 := m.Snapshot()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return float64(m.Snapshot().Sub(t0).Cycles()) / float64(n), nil
}

// ladderRows are the rows of every layer but eval, in output order.
var ladderRows = []struct {
	layer string
	run   func() ([]value, error)
}{
	{"core", ladderCore},
	{"sgxcrypto", ladderCrypto},
	{"tlslite", ladderTLS},
	{"xcall", ladderXcall},
	{"netsim", ladderNetsim},
	{"des", ladderDES},
	{"ratls", ladderRATLS},
	{"nfchain", ladderRules},
	{"tor", ladderTor},
	{"bgp", ladderBGP},
	{"load", ladderReplay},
}

// ladder runs every row, one span each, and then the eval rows, which
// also check the CLI's output: checks and bad count those checks and
// how many failed.
func ladder(o options, tr *tracer) (vals []value, checks, bad int, err error) {
	for _, row := range ladderRows {
		id := tr.begin("ladder."+row.layer, 0, -1)
		vs, err := row.run()
		tr.end(id)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("ladder %s: %w", row.layer, err)
		}
		vals = append(vals, vs...)
	}
	id := tr.begin("ladder.eval", 0, -1)
	vs, checks, bad, err := ladderEval(o)
	tr.end(id)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("ladder eval: %w", err)
	}
	return append(vals, vs...), checks, bad, nil
}

// ladderProgram is the enclave the core and xcall rows call into.
func ladderProgram() *core.Program {
	kib := make([]byte, 1024)
	return &core.Program{Name: "bench-ladder", Version: "1", Handlers: map[string]core.Handler{
		"noop": func(*core.Env, []byte) ([]byte, error) { return nil, nil },
		"seal": func(env *core.Env, _ []byte) ([]byte, error) {
			var blob []byte
			var err error
			for i := 0; i < innerOps && err == nil; i++ {
				blob, err = env.SealData(core.KeySealEnclave, kib)
			}
			return blob, err
		},
		"unseal": func(env *core.Env, blob []byte) ([]byte, error) {
			for i := 0; i < innerOps; i++ {
				if _, err := env.UnsealData(core.KeySealEnclave, blob); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	}}
}

// launchLadder launches the ladder enclave on a fresh platform.
func launchLadder(name string, frames int) (*core.Platform, *core.Enclave, error) {
	plat, err := core.NewPlatform(name, core.PlatformConfig{EPCFrames: frames, Seed: []byte(name)})
	if err != nil {
		return nil, nil, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return nil, nil, err
	}
	enc, err := plat.Launch(ladderProgram(), signer)
	return plat, enc, err
}

func ladderCore() ([]value, error) {
	_, enc, err := launchLadder("bench-core", 256)
	if err != nil {
		return nil, err
	}
	noop := func() error { _, err := enc.Call("noop", nil); return err }
	ecallNs, ecallAllocs, err := timeOp(noop)
	if err != nil {
		return nil, err
	}
	ecallCycles, err := cyclesPer(enc.Meter(), 1000, noop)
	if err != nil {
		return nil, err
	}
	sealNs, _, err := timeOp(func() error { _, err := enc.Call("seal", nil); return err })
	if err != nil {
		return nil, err
	}
	blob, err := enc.Call("seal", nil)
	if err != nil {
		return nil, err
	}
	unsealNs, _, err := timeOp(func() error { _, err := enc.Call("unseal", blob); return err })
	if err != nil {
		return nil, err
	}
	hitNs, _, err := pagerRow(0.5)
	if err != nil {
		return nil, err
	}
	faultNs, faultCycles, err := pagerRow(1.5)
	if err != nil {
		return nil, err
	}
	return []value{
		{"core.ecall_ns", ecallNs, "ns"},
		{"core.ecall_allocs", ecallAllocs, "count"},
		{"core.ecall_cycles", ecallCycles, "cycles"},
		{"core.seal_kb_ns", sealNs / innerOps, "ns"},
		{"core.unseal_kb_ns", unsealNs / innerOps, "ns"},
		{"core.pager_hit_ns", hitNs, "ns"},
		{"core.pager_fault_ns", faultNs, "ns"},
		{"core.pager_fault_cycles", faultCycles, "cycles"},
	}, nil
}

// pagerRow times Pager.Touch over a cyclic working set of ratio × the
// pageable budget: all hits below 1, all faults (evict + reload) above
// it under the clock policy.
func pagerRow(ratio float64) (ns, cycles float64, err error) {
	plat, enc, err := launchLadder("bench-pager", 128)
	if err != nil {
		return 0, 0, err
	}
	pg := core.NewPager(plat.EPC(), core.NewClockPolicy())
	ws := int(ratio * float64(plat.EPC().FreeCount()))
	pos := 0
	touch := func() error {
		_, err := pg.Touch(enc.Meter(), enc.ID(), uint64(pos%ws)*core.PageSize)
		pos++
		return err
	}
	for i := 0; i < ws; i++ {
		if err := touch(); err != nil {
			return 0, 0, err
		}
	}
	if ns, _, err = timeOp(touch); err != nil {
		return 0, 0, err
	}
	cycles, err = cyclesPer(enc.Meter(), 2*ws, touch)
	return ns, cycles, err
}

func ladderCrypto() ([]value, error) {
	m := core.NewMeter()
	var secret [32]byte
	for i := range secret {
		secret[i] = byte(i)
	}
	ch, err := sgxcrypto.NewChannel(m, secret)
	if err != nil {
		return nil, err
	}
	kib := make([]byte, 1024)
	sealNs, _, err := timeOp(func() error { _, err := ch.Seal(m, kib); return err })
	if err != nil {
		return nil, err
	}
	sealed, err := ch.Seal(m, kib)
	if err != nil {
		return nil, err
	}
	openNs, _, err := timeOp(func() error { _, err := ch.Open(m, sealed); return err })
	if err != nil {
		return nil, err
	}
	priv := ed25519.NewKeyFromSeed(secret[:])
	pub := priv.Public().(ed25519.PublicKey)
	msg := kib[:64]
	sig := ed25519.Sign(priv, msg)
	verifyNs, _, err := timeOp(func() error {
		if !sgxcrypto.Verify(m, pub, msg, sig) {
			return errors.New("signature rejected")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []value{
		{"sgxcrypto.channel_seal_kb_ns", sealNs, "ns"},
		{"sgxcrypto.channel_open_kb_ns", openNs, "ns"},
		{"sgxcrypto.verify_ns", verifyNs, "ns"},
	}, nil
}

func ladderTLS() ([]value, error) {
	codec := tlslite.NewCodec(chainKeys(0))
	m := core.NewMeter()
	payload := make([]byte, 64)
	var seq uint64
	sealNs, _, err := timeOp(func() error {
		_, err := codec.Seal(m, tlslite.ClientToServer, seq, payload)
		seq++
		return err
	})
	if err != nil {
		return nil, err
	}
	rec, err := codec.Seal(m, tlslite.ClientToServer, 0, payload)
	if err != nil {
		return nil, err
	}
	openNs, _, err := timeOp(func() error { _, err := codec.Open(m, tlslite.ClientToServer, 0, rec); return err })
	if err != nil {
		return nil, err
	}
	return []value{{"tlslite.seal_ns", sealNs, "ns"}, {"tlslite.open_ns", openNs, "ns"}}, nil
}

func ladderXcall() ([]value, error) {
	var vals []value
	for _, b := range []int{1, 16, 64} {
		_, enc, err := launchLadder(fmt.Sprintf("bench-xcall-%d", b), 256)
		if err != nil {
			return nil, err
		}
		ring := xcall.NewCallRing(enc, xcall.Config{Batch: b})
		call := func() error { _, err := ring.Call("noop", nil); return err }
		ns, _, err := timeOp(call)
		if err != nil {
			return nil, err
		}
		vals = append(vals, value{fmt.Sprintf("xcall.call_ns.b%d", b), ns, "ns"})
		if b == 64 {
			// From a flushed ring: the doorbell fallback, the batched
			// drains and the final flush are all on the bill.
			if err := ring.Flush(); err != nil {
				return nil, err
			}
			t0 := enc.Meter().Snapshot()
			const calls = 100 * 64
			for i := 0; i < calls; i++ {
				if err := call(); err != nil {
					return nil, err
				}
			}
			if err := ring.Flush(); err != nil {
				return nil, err
			}
			cyc := float64(enc.Meter().Snapshot().Sub(t0).Cycles()) / calls
			vals = append(vals, value{"xcall.call_cycles.b64", cyc, "cycles"})
		}
	}
	return vals, nil
}

func ladderNetsim() ([]value, error) {
	net := netsim.New()
	a, err := net.AddHost("a", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		return nil, err
	}
	b, err := net.AddHost("b", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		return nil, err
	}
	l, err := b.Listen("echo")
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			p, err := c.Recv()
			if err != nil || c.Send(p) != nil {
				return
			}
		}
	}()
	defer func() {
		l.Close()
		<-done
	}()
	conn, err := a.Dial("b", "echo")
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	msg := make([]byte, 512)
	ns, allocs, err := timeOp(func() error { _, err := conn.Request(msg); return err })
	if err != nil {
		return nil, err
	}
	return []value{{"netsim.send_recv_ns", ns, "ns"}, {"netsim.send_recv_allocs", allocs, "count"}}, nil
}

type nopHandler struct{}

func (nopHandler) OnEvent(uint64, uint64) {}

// desScaleSpec is the scale-sweep cell behind des.events_per_s.
const desScaleSpec = "sdn:ases=1024,updates=4,rate=100,seed=42"

func ladderDES() ([]value, error) {
	k := des.New()
	var h nopHandler
	const depth = 1024 // steady heap size while timing
	for i := 0; i < depth; i++ {
		k.At(mix(1, uint64(i))%1_000_000, h, 0)
	}
	i := uint64(depth)
	ns, _, err := timeOp(func() error {
		k.At(k.Now()+mix(1, i)%1_000_000, h, 0)
		i++
		k.Step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp, err := scale.ParseSpec(desScaleSpec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := scale.Run(sp)
	if err != nil {
		return nil, err
	}
	return []value{
		{"des.push_pop_ns", ns, "ns"},
		{"des.events_per_s", float64(res.Events) / time.Since(t0).Seconds(), "1/s"},
	}, nil
}

// headProgram is the enclave whose RA-TLS certificate is admitted: the
// nf-chain head, and the subject of the ratls rows.
func headProgram() *core.Program {
	prog := &core.Program{Name: "nfchain-head", Version: "1.0", Handlers: map[string]core.Handler{
		"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil },
	}}
	ratls.AddSubjectHandlers(prog)
	return prog
}

// headPolicy accepts exactly the head program.
func headPolicy() attest.Policy {
	return attest.Policy{AllowedEnclaves: []core.Measurement{core.MeasureProgram(headProgram())}, RejectDebug: true}
}

// mintHead mints the head's certificate on plat, whose architectural
// signer is arch.
func mintHead(plat *core.Platform, arch, signer *core.Signer) ([]byte, error) {
	mt, err := ratls.NewMinter(plat, arch)
	if err != nil {
		return nil, err
	}
	defer mt.Close()
	head, err := plat.Launch(headProgram(), signer)
	if err != nil {
		return nil, err
	}
	defer head.Destroy()
	_, cert, err := mt.Mint(head)
	return cert, err
}

func ladderRATLS() ([]value, error) {
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	plat, err := core.NewPlatform("bench-ratls", core.PlatformConfig{EPCFrames: 256, ArchSigner: arch.MRSigner()})
	if err != nil {
		return nil, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	cert, err := mintHead(plat, arch, signer)
	if err != nil {
		return nil, err
	}
	v := ratls.NewVerifier(headPolicy(), 1)
	m := core.NewMeter()
	admit := func() error { _, err := v.Admit(m, cert, "peer"); return err }
	warmNs, warmAllocs, err := timeOp(admit)
	if err != nil {
		return nil, err
	}
	coldNs, _, err := timeOp(func() error { v.InvalidateAll(); return admit() })
	if err != nil {
		return nil, err
	}
	return []value{
		{"ratls.admit_warm_ns", warmNs, "ns"},
		{"ratls.admit_warm_allocs", warmAllocs, "count"},
		{"ratls.admit_cold_ns", coldNs, "ns"},
	}, nil
}

// ladderRules times one rule-engine walk at the classify stage for a
// TLS packet, which no rule there matches: the whole table is examined.
func ladderRules() ([]value, error) {
	_, names, err := chainStages()
	if err != nil {
		return nil, err
	}
	var vals []value
	for _, n := range []int{16, 256, 4096} {
		rs, err := nfchain.CompileText(chainRuleText(n), names)
		if err != nil {
			return nil, err
		}
		m := core.NewMeter()
		p := nfchain.Packet{Flow: 1, SrcPort: 40000, DstPort: 443, Proto: 6, Tag: nfchain.TagTLS}
		eval := func() error {
			if v := rs.Evaluate(m, 0, &p); v.Examined != n {
				return fmt.Errorf("examined %d of %d rules", v.Examined, n)
			}
			return nil
		}
		ns, _, err := timeOp(eval)
		if err != nil {
			return nil, err
		}
		vals = append(vals, value{fmt.Sprintf("nfchain.eval_ns.r%d", n), ns, "ns"})
		if n == 4096 {
			cyc, err := cyclesPer(m, 100, eval)
			if err != nil {
				return nil, err
			}
			vals = append(vals, value{"nfchain.eval_cycles.r4096", cyc, "cycles"})
		}
	}
	return vals, nil
}

// circuitBuilds is how many circuits the tor row builds; it reports the
// median.
const circuitBuilds = 5

func ladderTor() ([]value, error) {
	tn, err := tor.Deploy(tor.NetworkConfig{Mode: tor.ModeSGXORs, Authorities: 1, Relays: 2, Exits: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	c, err := tn.NewClient("bench-client", 11)
	if err != nil {
		return nil, err
	}
	consensus, err := tn.Discover(c)
	if err != nil {
		return nil, err
	}
	path, err := c.PickPath(consensus, 3)
	if err != nil {
		return nil, err
	}
	var ms []float64
	for k := 0; k < circuitBuilds; k++ {
		t0 := time.Now()
		circ, err := c.BuildCircuit(path)
		if err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		circ.Close()
	}
	return []value{{"tor.build_circuit_ms", median(ms), "ms"}}, nil
}

func ladderBGP() ([]value, error) {
	t, err := topo.Random(topo.Config{N: 30, Seed: 42, PrefJitter: true})
	if err != nil {
		return nil, err
	}
	ns, _, err := timeOp(func() error { bgp.ComputeAll(t); return nil })
	if err != nil {
		return nil, err
	}
	return []value{{"bgp.compute_all_ms.n30", ns / 1e6, "ms"}}, nil
}

// ladderReplay times the modelled-latency engine itself: one load.Run
// over requests seeded tallies at ρ = 0.8.
func ladderReplay() ([]value, error) {
	tallies := make([]core.Tally, requests)
	for i := range tallies {
		tallies[i] = core.Tally{Normal: 500_000 + mix(7, uint64(i))%1_000_000}
	}
	rate := 0.8 * 1e6 / meanCycles(tallies)
	var ms []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if _, err := replay(tallies, 7, rate, 0); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return []value{{"load.replay_ms", median(ms), "ms"}}, nil
}

// evalSections are the transcript's sections in output order, each
// selected by its own CLI flag.
var evalSections = []struct {
	name string
	args []string
}{
	{"table1", []string{"-table", "1"}},
	{"table2", []string{"-table", "2"}},
	{"table3", []string{"-table", "3"}},
	{"table4", []string{"-table", "4"}},
	{"figure3", []string{"-fig", "3"}},
	{"ablations", []string{"-ablations"}},
	{"epc", []string{"-epc-sweep"}},
	{"xcall", []string{"-xcall-sweep"}},
	{"load", []string{"-load-sweep"}},
	{"scale", []string{"-scale-sweep"}},
	{"ratls", []string{"-ratls-sweep"}},
	{"chain", []string{"-chain-sweep"}},
}

// ladderEval times each transcript section through its own flag, checks
// that the sections concatenate to all.golden, and measures the eval
// runner's speed-up from one worker to two on the whole transcript.
func ladderEval(o options) ([]value, int, int, error) {
	golden, err := os.ReadFile(o.golden)
	if err != nil {
		return nil, 0, 0, err
	}
	var vals []value
	var all []byte
	bad := 0
	for _, s := range evalSections {
		r, err := runCLI(o.tables, append(s.args, "-workers", "2")...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "section %s: %v\n", s.name, err)
			bad++
		}
		all = append(all, r.out...)
		vals = append(vals, value{"eval.section_s." + s.name, r.wall.Seconds(), "s"})
	}
	if string(all) != string(golden) {
		fmt.Fprintf(os.Stderr, "sections differ from all.golden at %s\n", firstDiff(all, golden))
		bad++
	}
	w1, ok1 := checkTranscript(o, "workers-1 transcript", golden, "-workers", "1")
	w2, ok2 := checkTranscript(o, "workers-2 transcript", golden, "-workers", "2")
	for _, ok := range []bool{ok1, ok2} {
		if !ok {
			bad++
		}
	}
	vals = append(vals, value{"eval.workers_speedup", w1.wall.Seconds() / w2.wall.Seconds(), "ratio"})
	return vals, len(evalSections) + 3, bad, nil
}

// counters are probe-registry counts by kind.
type counters map[string]uint64

func registryCounters(reg *obs.Registry) counters {
	c := counters{}
	for _, m := range reg.Snapshot() {
		c[m.Name] = m.Value
	}
	return c
}

func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// perOpCounters are the per-layer work counts per workload operation.
// A layer off the workload's path reads 0.
func perOpCounters(c counters, ops float64) []value {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return []value{
		{"core.calls_per_op", float64(c[core.KindEnclaveCall]) / ops, "count"},
		{"core.ocalls_per_op", float64(c[core.KindEnclaveOCall]) / ops, "count"},
		{"xcall.calls_per_op", float64(c[xcall.KindCall]) / ops, "count"},
		{"xcall.fallback_frac", ratio(c[xcall.KindFallback], c[xcall.KindCall]+c[xcall.KindFallback]), "ratio"},
		{"nfchain.hops_per_op", float64(c[nfchain.KindProcess]) / ops, "count"},
		{"nfchain.rules_examined_per_hop", ratio(c[nfchain.KindRuleExamined], c[nfchain.KindProcess]), "count"},
		{"ratls.admits_per_op", float64(c[ratls.KindVerifyCold]+c[ratls.KindVerifyWarm]) / ops, "count"},
	}
}
