package nfchain

import (
	"fmt"
	"testing"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/ratls"
	"sgxnet/internal/tlslite"
)

// testKeys returns deterministic session keys for generation g.
func testKeys(g byte) tlslite.Keys {
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

// chainRig is one SGX-hosted chain plus the native twin, over a
// four-stage layout: classify → filter → dpi → reencrypt.
type chainRig struct {
	net    *netsim.Network
	host   *netsim.SimHost
	chain  *Chain
	native *Native
	rules  *RuleSet
	stages []Stage
}

const testRules = `
at classify match tag=dns -> mirror:dpi
at filter match tag=blocked -> drop
at dpi match tag=malware -> drop
`

func newChainRig(t *testing.T, batch int, verifier *ratls.Verifier) *chainRig {
	t.Helper()
	net := netsim.New()
	seed := fmt.Sprintf("chain-test/batch=%d/gated=%v", batch, verifier != nil)
	host, err := net.AddHost("mbox", core.PlatformConfig{EPCFrames: 1024, Seed: []byte(seed)})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := net.AddHost("sink", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	l, err := sink.Listen("sink")
	if err != nil {
		t.Fatal(err)
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

	newStages := func() []Stage {
		dpi, err := NewDPIStage("dpi", testKeys(0), []string{"malware"})
		if err != nil {
			t.Fatal(err)
		}
		return []Stage{
			NewClassify("classify"),
			NewHeaderFilter("filter", 23),
			dpi,
			NewReencrypt("reencrypt", testKeys(0), testKeys(1)),
		}
	}
	stages := newStages()
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	rules, err := CompileText(testRules, names)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(host, Config{
		Stages:   stages,
		Rules:    rules,
		Batch:    batch,
		Verifier: verifier,
		Egress:   func() (*netsim.Conn, error) { return host.Dial("sink", "sink") },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chain.Destroy)
	native, err := NewNative(newStages(), rules, core.NewMeter(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &chainRig{net: net, host: host, chain: chain, native: native, rules: rules, stages: stages}
}

// testTraffic builds a deterministic packet mix: TLS records (some
// containing the DPI pattern), a denied port, and DNS to exercise the
// mirror rule.
func testTraffic(t *testing.T, n int) []Packet {
	t.Helper()
	codec := tlslite.NewCodec(testKeys(0))
	scratch := core.NewMeter()
	pkts := make([]Packet, 0, n)
	ports := []uint16{443, 80, 53, 23}
	for i := 0; i < n; i++ {
		plain := fmt.Sprintf("packet %03d payload padding-padding", i)
		if i%8 == 5 {
			plain = fmt.Sprintf("packet %03d carries malware payload", i)
		}
		rec, err := codec.Seal(scratch, tlslite.ClientToServer, uint64(i), []byte(plain))
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, Packet{
			Flow:    uint32(i),
			SrcPort: uint16(40000 + i),
			DstPort: ports[i%len(ports)],
			Proto:   6,
			Payload: rec,
		})
	}
	return pkts
}

// TestChainMatchesNative runs the same traffic through the enclave-
// hosted chain (sync and batched) and the native twin: packet outcomes
// must be identical, and the SGX tally must exceed native by crossing
// cost only when unbatched.
func TestChainMatchesNative(t *testing.T) {
	for _, batch := range []int{1, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			rig := newChainRig(t, batch, nil)
			pkts := testTraffic(t, 32)
			for i := range pkts {
				p := pkts[i]
				if err := rig.chain.Process(&p); err != nil {
					t.Fatalf("chain packet %d: %v", i, err)
				}
				p = pkts[i]
				if err := rig.native.Process(&p); err != nil {
					t.Fatalf("native packet %d: %v", i, err)
				}
			}
			if err := rig.chain.Flush(); err != nil {
				t.Fatal(err)
			}
			cs, ns := rig.chain.Stats(), rig.native.Stats()
			if cs != ns {
				t.Fatalf("stats diverge:\n  sgx    %+v\n  native %+v", cs, ns)
			}
			if cs.Dropped == 0 || cs.Delivered == 0 || cs.Mirrored == 0 || cs.Alerts == 0 {
				t.Fatalf("traffic mix too tame: %+v", cs)
			}
			sgx, nat := rig.chain.Tally(), rig.native.Tally()
			if sgx.SGXU == 0 {
				t.Fatal("SGX chain recorded no SGX instructions")
			}
			if nat.SGXU != 0 {
				t.Fatalf("native chain recorded SGX instructions: %+v", nat)
			}
			// In sync mode the SGX side charges the same stage/rule work
			// plus per-packet shim overhead, so its normal bill can only
			// exceed native's. (Batched mode legitimately undercuts the
			// native per-packet syscall cost — that's the point.)
			if batch == 1 && sgx.Normal < nat.Normal {
				t.Fatalf("SGX normal %d < native %d", sgx.Normal, nat.Normal)
			}
		})
	}
}

// TestChainBatchingAmortizesCrossings pins the tentpole claim at unit
// scale: the batched chain's SGX-instruction bill is strictly below the
// sync chain's on identical traffic.
func TestChainBatchingAmortizesCrossings(t *testing.T) {
	tally := func(batch int) core.Tally {
		rig := newChainRig(t, batch, nil)
		pkts := testTraffic(t, 32)
		for i := range pkts {
			p := pkts[i]
			if err := rig.chain.Process(&p); err != nil {
				t.Fatal(err)
			}
		}
		if err := rig.chain.Flush(); err != nil {
			t.Fatal(err)
		}
		return rig.chain.Tally()
	}
	sync, batched := tally(1), tally(16)
	if batched.SGXU >= sync.SGXU {
		t.Fatalf("batch=16 SGXU %d not below sync %d", batched.SGXU, sync.SGXU)
	}
}

// TestChainAdmission gates a chain behind a shared verifier: traffic
// before admission is refused with zero charge beyond the crossing, the
// N-hop admission costs 1 cold + N−1 warm verifications, and a foreign
// certificate is rejected.
func TestChainAdmission(t *testing.T) {
	arch, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New()
	host, err := net.AddHost("mbox", core.PlatformConfig{
		EPCFrames: 1024, ArchSigner: arch.MRSigner(), Seed: []byte("chain-admission"),
	})
	if err != nil {
		t.Fatal(err)
	}
	plat := host.Platform()
	mt, err := ratls.NewMinter(plat, arch)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	headProg := &core.Program{
		Name:     "nfchain-head",
		Version:  "1.0",
		Handlers: map[string]core.Handler{"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil }},
	}
	ratls.AddSubjectHandlers(headProg)
	head, err := plat.Launch(headProg, signer)
	if err != nil {
		t.Fatal(err)
	}
	_, cert, err := mt.Mint(head)
	if err != nil {
		t.Fatal(err)
	}
	v := ratls.NewVerifier(attest.Policy{
		AllowedEnclaves: []core.Measurement{core.MeasureProgram(headProg)},
		RejectDebug:     true,
	}, 1)

	stages := []Stage{NewClassify("classify"), NewHeaderFilter("filter", 23)}
	rules, err := CompileText("at filter match tag=blocked -> drop", []string{"classify", "filter"})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(host, Config{Stages: stages, Rules: rules, Verifier: v, Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Destroy()

	// Unadmitted traffic: refused, and the refused ECALL charges
	// exactly the EENTER/EEXIT pair — nothing else.
	pre := chain.Tally()
	p := Packet{DstPort: 443, Proto: 6}
	if err := chain.Process(&p); err == nil {
		t.Fatal("unadmitted chain accepted traffic")
	}
	if d := chain.Tally().Sub(pre); d != (core.Tally{SGXU: 2}) {
		t.Fatalf("refused ECALL charged %+v, want {SGXU:2}", d)
	}

	// A certificate from a non-whitelisted program is rejected and no
	// hop opens.
	rogueProg := &core.Program{
		Name:     "nfchain-rogue",
		Version:  "1.0",
		Handlers: map[string]core.Handler{"noop": func(env *core.Env, arg []byte) ([]byte, error) { return arg, nil }},
	}
	ratls.AddSubjectHandlers(rogueProg)
	rogue, err := plat.Launch(rogueProg, signer)
	if err != nil {
		t.Fatal(err)
	}
	_, rogueCert, err := mt.Mint(rogue)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Admit("rogue", rogueCert); err == nil {
		t.Fatal("rogue certificate admitted")
	}

	// The genuine head certificate admits every hop: 1 cold + N−1 warm
	// on the shared verifier.
	if _, err := chain.Admit("chain-head", cert); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	st := v.Stats()
	if st.Cold != 1 || st.Warm != uint64(len(stages)-1) {
		t.Fatalf("verifier saw cold=%d warm=%d, want 1/%d", st.Cold, st.Warm, len(stages)-1)
	}
	p = Packet{DstPort: 443, Proto: 6}
	if err := chain.Process(&p); err != nil {
		t.Fatalf("admitted chain refused traffic: %v", err)
	}
}

// TestChainMalformedPacketChargesNothing pins validate-then-charge at
// the chain boundary: a garbage ECALL argument costs the crossing pair
// and zero stage or rule work.
func TestChainMalformedPacketChargesNothing(t *testing.T) {
	rig := newChainRig(t, 1, nil)
	pre := rig.chain.Tally()
	if _, err := rig.chain.hops[0].enc.Call(ProcService, []byte("not a packet")); err == nil {
		t.Fatal("malformed packet accepted")
	}
	if d := rig.chain.Tally().Sub(pre); d != (core.Tally{SGXU: 2}) {
		t.Fatalf("malformed packet charged %+v, want {SGXU:2}", d)
	}
}

// TestReencryptRotatesKeys checks the key-rotation stage end to end: a
// record sealed under generation 0 leaves the stage authenticating only
// under generation 1, with direction and sequence preserved.
func TestReencryptRotatesKeys(t *testing.T) {
	m := core.NewMeter()
	codec0, codec1 := tlslite.NewCodec(testKeys(0)), tlslite.NewCodec(testKeys(1))
	rec, err := codec0.Seal(m, tlslite.ClientToServer, 7, []byte("rotate me"))
	if err != nil {
		t.Fatal(err)
	}
	stage := NewReencrypt("reencrypt", testKeys(0), testKeys(1))
	p := Packet{Payload: rec}
	if err := stage.Process(m, &p); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := codec0.OpenAny(m, p.Payload); err == nil {
		t.Fatal("rotated record still opens under the old keys")
	}
	dir, seq, plain, err := codec1.OpenAny(m, p.Payload)
	if err != nil {
		t.Fatalf("rotated record does not open under the new keys: %v", err)
	}
	if dir != tlslite.ClientToServer || seq != 7 || string(plain) != "rotate me" {
		t.Fatalf("rotation mangled the record: dir=%v seq=%d plain=%q", dir, seq, plain)
	}

	// A non-record payload passes through unchanged and the failed
	// authentication charges nothing.
	pre := m.Snapshot()
	p = Packet{Payload: []byte("opaque")}
	if err := stage.Process(m, &p); err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "opaque" {
		t.Fatalf("pass-through mutated payload: %q", p.Payload)
	}
	if d := m.Snapshot().Sub(pre); d != (core.Tally{}) {
		t.Fatalf("failed open charged %+v", d)
	}
}

// TestChainStageBound pins the one-byte stage index of the verdict
// encoding: Compile rejects a 256-stage layout, and at 255 stages a
// forward and a mirror to the last stage survive encodeVerdict and
// decodeVerdict.
func TestChainStageBound(t *testing.T) {
	stages := make([]string, maxStages+1)
	for i := range stages {
		stages[i] = fmt.Sprintf("s%d", i)
	}
	if _, err := Compile(nil, stages); err == nil {
		t.Fatalf("Compile accepted %d stages", len(stages))
	}
	stages = stages[:maxStages]
	last := len(stages) - 1
	rs, err := CompileText(fmt.Sprintf("at s0 match * -> forward:s%d\nat s%d match * -> mirror:s%d", last, last-1, last), stages)
	if err != nil {
		t.Fatalf("Compile rejected %d stages: %v", len(stages), err)
	}
	for _, c := range []struct {
		stage      int
		act        Action
		target, co int
	}{{0, ActForward, last, -1}, {last - 1, ActMirror, last, last}} {
		p := Packet{Flow: 9, Payload: []byte("x")}
		v := rs.Evaluate(core.NewMeter(), c.stage, &p)
		if v.Action != c.act || v.Target != c.target || v.Cont != c.co {
			t.Fatalf("stage %d: verdict %+v, want %v to %d, continuing to %d", c.stage, v, c.act, c.target, c.co)
		}
		got, _, pkt, err := decodeVerdict(encodeVerdict(v, false, &p))
		if err != nil {
			t.Fatalf("stage %d: decodeVerdict: %v", c.stage, err)
		}
		if got.Action != v.Action || got.Target != v.Target || got.Cont != v.Cont || got.Examined != v.Examined {
			t.Fatalf("stage %d: verdict %+v decoded as %+v", c.stage, v, got)
		}
		if pkt.Flow != p.Flow || string(pkt.Payload) != "x" {
			t.Fatalf("stage %d: packet %+v decoded as %+v", c.stage, p, pkt)
		}
	}
}
