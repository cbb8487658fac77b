package attest

import (
	"crypto/ed25519"
	"errors"
	"strings"
	"sync"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/sgxcrypto"
)

// fixture wires a two-host network with quoting enclaves, one target
// enclave and one challenger enclave.
type fixture struct {
	net        *netsim.Network
	arch       *core.Signer
	hostT      *netsim.SimHost
	hostC      *netsim.SimHost
	agentT     *Agent
	agentC     *Agent
	target     *core.Enclave
	challenger *core.Enclave
	tShim      *netsim.IOShim
	cShim      *netsim.IOShim
	tState     *TargetState
	cState     *ChallengerState
}

func targetProgram(st *TargetState) *core.Program {
	prog := &core.Program{Name: "demo-target", Version: "1", Handlers: map[string]core.Handler{}}
	AddTargetHandlers(prog, st)
	return prog
}

func challengerProgram(st *ChallengerState) *core.Program {
	prog := &core.Program{Name: "demo-challenger", Version: "1", Handlers: map[string]core.Handler{}}
	AddChallengerHandlers(prog, st)
	return prog
}

func addSGXHost(t *testing.T, n *netsim.Network, name string, arch *core.Signer) (*netsim.SimHost, *Agent) {
	t.Helper()
	h, agent, err := NewSGXHost(n, name, arch)
	if err != nil {
		t.Fatal(err)
	}
	return h, agent
}

func newFixture(t *testing.T, policy Policy) *fixture {
	t.Helper()
	f := &fixture{net: netsim.New()}
	arch, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	f.arch = arch
	f.hostT, f.agentT = addSGXHost(t, f.net, "target-host", arch)
	f.hostC, f.agentC = addSGXHost(t, f.net, "challenger-host", arch)

	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	f.tState = NewTargetState()
	f.target, err = f.hostT.Platform().Launch(targetProgram(f.tState), signer)
	if err != nil {
		t.Fatal(err)
	}
	f.tShim = netsim.NewMsgShim(f.hostT, f.target.Meter())
	f.target.BindHost(f.tShim)

	f.cState = NewChallengerState(policy)
	f.challenger, err = f.hostC.Platform().Launch(challengerProgram(f.cState), signer)
	if err != nil {
		t.Fatal(err)
	}
	f.cShim = netsim.NewMsgShim(f.hostC, f.challenger.Meter())
	f.challenger.BindHost(f.cShim)
	return f
}

// respond answers one attestation on c as the fixture's target. When
// Respond fails it closes c, so a challenger blocked in a receive gets an
// error and the test fails instead of hanging until go test's timeout.
func (f *fixture) respond(c *netsim.Conn) (uint32, error) {
	tid, err := Respond(nil, "", f.target, f.tShim, f.hostT, c)
	if err != nil {
		c.Close()
	}
	return tid, err
}

// run performs one attestation and returns (challenger connID, target
// connID, challenger error, target error).
func (f *fixture) run(t *testing.T, wantDH bool) (uint32, uint32, error, error) {
	t.Helper()
	l, err := f.hostT.Listen("app")
	if err != nil {
		// listener may persist across runs within a test
		t.Fatal(err)
	}
	defer l.Close()
	var (
		wg         sync.WaitGroup
		tid        uint32
		targetErr  error
		serverConn *netsim.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverConn, targetErr = l.Accept()
		if targetErr != nil {
			return
		}
		tid, targetErr = f.respond(serverConn)
	}()
	conn, err := f.hostC.Dial("target-host", "app")
	if err != nil {
		t.Fatal(err)
	}
	cid, _, challErr := Challenge(nil, "", f.challenger, f.cShim, conn, wantDH)
	wg.Wait()
	return cid, tid, challErr, targetErr
}

func TestRemoteAttestationNoDH(t *testing.T) {
	f := newFixture(t, Policy{})
	cid, tid, ce, te := f.run(t, false)
	if ce != nil || te != nil {
		t.Fatalf("challenger err=%v target err=%v", ce, te)
	}
	cs, ok := f.cState.Session(cid)
	if !ok {
		t.Fatal("challenger has no session")
	}
	if cs.Peer.MREnclave != f.target.MREnclave() {
		t.Fatal("attested identity is not the target's")
	}
	if cs.Channel != nil {
		t.Fatal("no-DH attestation produced a channel")
	}
	if _, ok := f.tState.Session(tid); !ok {
		t.Fatal("target has no session")
	}
}

func TestRemoteAttestationWithDHChannel(t *testing.T) {
	f := newFixture(t, Policy{})
	cid, tid, ce, te := f.run(t, true)
	if ce != nil || te != nil {
		t.Fatalf("challenger err=%v target err=%v", ce, te)
	}
	cs, _ := f.cState.Session(cid)
	ts, _ := f.tState.Session(tid)
	if cs == nil || ts == nil || cs.Channel == nil || ts.Channel == nil {
		t.Fatal("missing channel")
	}
	if cs.Secret != ts.Secret {
		t.Fatal("shared secrets differ")
	}
	// The channels interoperate.
	m := core.NewMeter()
	sealed, err := cs.Channel.Seal(m, []byte("policy: prefer customer"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ts.Channel.Open(m, sealed)
	if err != nil || string(got) != "policy: prefer customer" {
		t.Fatalf("channel broken: %q %v", got, err)
	}
}

// TestTable1RemoteAttestation reproduces Table 1: exact SGX(U) counts and
// exact normal-instruction totals for all three enclaves, with and
// without DH.
func TestTable1RemoteAttestation(t *testing.T) {
	cases := []struct {
		wantDH                               bool
		targetN, quotingN, challengerN       uint64
		targetSGX, quotingSGX, challengerSGX uint64
	}{
		{false, 154_000_000, 125_000_000, 124_000_000, 20, 17, 8},
		{true, 4_338_000_000, 125_000_000, 348_000_000, 20, 17, 8},
	}
	for _, c := range cases {
		f := newFixture(t, Policy{})
		f.target.Meter().SnapshotAndReset()
		f.challenger.Meter().SnapshotAndReset()
		f.agentT.QE.Meter().SnapshotAndReset()
		_, _, ce, te := f.run(t, c.wantDH)
		if ce != nil || te != nil {
			t.Fatalf("dh=%v: challenger err=%v target err=%v", c.wantDH, ce, te)
		}
		check := func(role string, m *core.Meter, wantSGX, wantN uint64) {
			if m.SGX() != wantSGX {
				t.Errorf("dh=%v %s: SGX(U)=%d, want %d", c.wantDH, role, m.SGX(), wantSGX)
			}
			if m.Normal() != wantN {
				t.Errorf("dh=%v %s: normal=%d, want %d", c.wantDH, role, m.Normal(), wantN)
			}
		}
		check("target", f.target.Meter(), c.targetSGX, c.targetN)
		check("quoting", f.agentT.QE.Meter(), c.quotingSGX, c.quotingN)
		check("challenger", f.challenger.Meter(), c.challengerSGX, c.challengerN)
	}
}

// TestDHDominatesCycles verifies the §5 claim that the DH exchange takes
// up ~90% of the attestation cycles.
func TestDHDominatesCycles(t *testing.T) {
	f := newFixture(t, Policy{})
	f.target.Meter().SnapshotAndReset()
	f.challenger.Meter().SnapshotAndReset()
	f.agentT.QE.Meter().SnapshotAndReset()
	if _, _, ce, te := f.run(t, true); ce != nil || te != nil {
		t.Fatalf("ce=%v te=%v", ce, te)
	}
	total := f.target.Meter().Cycles() + f.agentT.QE.Meter().Cycles() + f.challenger.Meter().Cycles()
	dh := core.CyclesOf(0, core.CostDHParamGen+2*core.CostDHKeyAgree)
	frac := float64(dh) / float64(total)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("DH fraction = %.2f, paper says ≈0.90", frac)
	}
}

func TestTamperedTargetRejected(t *testing.T) {
	// Policy pins the expected (community-verified) target measurement.
	st := NewTargetState()
	goodMR := core.MeasureProgram(targetProgram(st))
	f := newFixture(t, Policy{AllowedEnclaves: []core.Measurement{goodMR}})

	// Replace the target with a tampered build (different version).
	tampered := targetProgram(f.tState)
	tampered.Version = "1-malicious"
	signer, _ := core.NewSigner()
	enc, err := f.hostT.Platform().Launch(tampered, signer)
	if err != nil {
		t.Fatal(err)
	}
	shim := netsim.NewMsgShim(f.hostT, enc.Meter())
	enc.BindHost(shim)
	f.target, f.tShim = enc, shim

	_, _, ce, _ := f.run(t, true)
	if ce == nil {
		t.Fatal("challenger accepted tampered target")
	}
	var pe *ErrPolicy
	if !errors.As(ce, &pe) && !strings.Contains(ce.Error(), "policy") {
		t.Fatalf("unexpected rejection: %v", ce)
	}
}

func TestWrongSignerRejected(t *testing.T) {
	trusted, _ := core.NewSigner()
	f := newFixture(t, Policy{AllowedSigners: []core.Measurement{trusted.MRSigner()}})
	// The fixture's target was signed by an untrusted signer.
	_, _, ce, _ := f.run(t, false)
	if ce == nil {
		t.Fatal("challenger accepted wrong signer")
	}
}

func TestUntrustedPlatformRejected(t *testing.T) {
	f := newFixture(t, Policy{TrustPlatform: func(pub ed25519.PublicKey) bool { return false }})
	_, _, ce, _ := f.run(t, false)
	if ce == nil {
		t.Fatal("challenger trusted an unknown platform key")
	}
}

func TestTrustedPlatformRegistry(t *testing.T) {
	var f *fixture
	policy := Policy{TrustPlatform: func(pub ed25519.PublicKey) bool {
		return pub.Equal(f.hostT.Platform().AttestationPublicKey())
	}}
	f = newFixture(t, policy)
	_, _, ce, te := f.run(t, false)
	if ce != nil || te != nil {
		t.Fatalf("ce=%v te=%v", ce, te)
	}
}

func TestForgedQuoteRejected(t *testing.T) {
	// A host without the real attestation key forges a quote; the
	// challenger must reject the signature.
	f := newFixture(t, Policy{})
	q := Quote{
		Identity:    IdentityOf(f.target),
		PlatformPub: f.hostT.Platform().AttestationPublicKey(),
		Sig:         make([]byte, ed25519.SignatureSize),
	}
	if q.Verify(core.NewMeter()) {
		t.Fatal("zero signature verified")
	}
	// Sign with the *wrong* key (attacker's own platform).
	wrongPriv := f.hostC.Platform() // has its own key, inaccessible anyway
	_ = wrongPriv
	signer, _ := core.NewSigner()
	q.Sig = sgxcrypto.Sign(core.NewMeter(), signerPriv(t, signer), q.SignedBody())
	if q.Verify(core.NewMeter()) {
		t.Fatal("quote signed by non-platform key verified")
	}
}

// signerPriv extracts a private key for forgery tests by generating a
// fresh one (core.Signer does not expose its key, which is the point).
func signerPriv(t *testing.T, _ *core.Signer) ed25519.PrivateKey {
	t.Helper()
	_, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	return priv
}

func TestQuotingEnclaveRefusesForeignReport(t *testing.T) {
	// A report MACed for a different target (not the quoting enclave)
	// must be refused by the quoting enclave.
	f := newFixture(t, Policy{})
	prog := &core.Program{
		Name:    "self-reporter",
		Version: "1",
		Handlers: map[string]core.Handler{
			"rep": func(env *core.Env, arg []byte) ([]byte, error) {
				// Report targeted at *itself*, not the quoting enclave.
				r := env.EReport(core.TargetInfo{Measurement: env.Enclave().MREnclave()}, core.ReportData{})
				return r.Marshal(), nil
			},
		},
	}
	signer, _ := core.NewSigner()
	enc, err := f.hostT.Platform().Launch(prog, signer)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := enc.Call("rep", nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := f.hostT.Dial("target-host", QuoteService)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send([]byte("hello"))
	conn.Recv()
	conn.Send(rep)
	if _, err := conn.Recv(); err == nil {
		t.Fatal("quoting enclave quoted a report not addressed to it")
	}
}

func TestSessionTableOps(t *testing.T) {
	var tbl SessionTable
	m := core.NewMeter()
	if _, err := tbl.Seal(m, 1, nil); err != ErrNoSession {
		t.Fatalf("err=%v", err)
	}
	tbl.put(1, &Session{})
	if _, err := tbl.Seal(m, 1, nil); err != ErrNoChannel {
		t.Fatalf("err=%v", err)
	}
	if _, err := tbl.Open(m, 1, nil); err != ErrNoChannel {
		t.Fatalf("err=%v", err)
	}
	if _, err := tbl.Open(m, 9, nil); err != ErrNoSession {
		t.Fatalf("err=%v", err)
	}
	var secret [32]byte
	ch, err := sgxcrypto.NewChannel(m, secret)
	if err != nil {
		t.Fatal(err)
	}
	tbl.put(2, &Session{Channel: ch})
	sealed, err := tbl.Seal(m, 2, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tbl.Open(m, 2, sealed); err != nil || string(got) != "x" {
		t.Fatalf("got %q err %v", got, err)
	}
	if tbl.Count() != 2 {
		t.Fatalf("count=%d", tbl.Count())
	}
	tbl.Drop(1)
	if tbl.Count() != 1 {
		t.Fatalf("count after drop=%d", tbl.Count())
	}
}

func TestQuotingMeasurementStable(t *testing.T) {
	a := QuotingMeasurement()
	b := QuotingMeasurement()
	if a != b || a.IsZero() {
		t.Fatal("quoting measurement unstable or zero")
	}
	if a != core.MeasureProgram(quotingProgram()) {
		t.Fatal("measurement mismatch with MeasureProgram")
	}
}

func TestAgentRequiresArchSigner(t *testing.T) {
	n := netsim.New()
	h, err := n.AddHost("plain", core.PlatformConfig{EPCFrames: 128}) // no ArchSigner
	if err != nil {
		t.Fatal(err)
	}
	arch, _ := core.NewSigner()
	if _, err := NewAgent(h, arch); err == nil {
		t.Fatal("agent launched without architectural provisioning")
	}
}

func TestPolicyCheckTable(t *testing.T) {
	var mr1, mr2 core.Measurement
	mr1[0], mr2[0] = 1, 2
	q := &Quote{Identity: Identity{MREnclave: mr1, MRSigner: mr2, Debug: true}}
	if err := (&Policy{RejectDebug: true}).Check(q); err == nil {
		t.Fatal("debug accepted")
	}
	if err := (&Policy{AllowedEnclaves: []core.Measurement{mr2}}).Check(q); err == nil {
		t.Fatal("wrong MRENCLAVE accepted")
	}
	if err := (&Policy{AllowedSigners: []core.Measurement{mr1}}).Check(q); err == nil {
		t.Fatal("wrong MRSIGNER accepted")
	}
	if err := (&Policy{AllowedEnclaves: []core.Measurement{mr1}, AllowedSigners: []core.Measurement{mr2}}).Check(q); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
}

func TestMeasureProgramMatchesLaunch(t *testing.T) {
	st := NewTargetState()
	prog := targetProgram(st)
	want := core.MeasureProgram(prog)
	plat, err := core.NewPlatform("x", core.PlatformConfig{EPCFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	signer, _ := core.NewSigner()
	e, err := plat.Launch(prog, signer)
	if err != nil {
		t.Fatal(err)
	}
	if e.MREnclave() != want {
		t.Fatal("MeasureProgram disagrees with Launch")
	}
}

// TestEvidenceTamperingRejected: an on-path attacker altering message 4
// (quote + DH material) is caught — either the quote signature breaks or
// the quote's challenge binding no longer matches.
func TestEvidenceTamperingRejected(t *testing.T) {
	f := newFixture(t, Policy{})
	l, err := f.hostT.Listen("app")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		sc, err := l.Accept()
		if err != nil {
			return
		}
		f.respond(sc) // will fail when the client aborts
	}()
	conn, err := f.hostC.Dial("target-host", "app")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the evidence (message 4), which travels target→challenger:
	// inject on the *server-side* conn is not reachable here, so corrupt
	// the challenger's view by flipping the received bytes via the fault
	// hook on the reverse direction: InjectCorrupt applies to sends from
	// this end, so instead tamper manually through a relay.
	cid := f.cShim.Adopt(conn)
	arg := make([]byte, 5)
	arg[0], arg[1], arg[2], arg[3] = byte(cid), byte(cid>>8), byte(cid>>16), byte(cid>>24)
	arg[4] = 1 // DH
	if _, err := f.challenger.Call("attest.c.begin", arg); err != nil {
		t.Fatal(err)
	}
	ev, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ev[len(ev)/3] ^= 0x10 // tamper mid-evidence
	if _, err := f.challenger.Call("attest.c.finish", append(arg[:4:4], ev...)); err == nil {
		t.Fatal("challenger accepted tampered evidence")
	}
	conn.Close()
}

// TestReplayedEvidenceRejected: evidence from one protocol run cannot be
// replayed into another (the quote binds the challenger's nonce).
func TestReplayedEvidenceRejected(t *testing.T) {
	f := newFixture(t, Policy{})
	capture := func() []byte {
		l, err := f.hostT.Listen("app")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			sc, err := l.Accept()
			if err != nil {
				return
			}
			f.respond(sc)
		}()
		conn, err := f.hostC.Dial("target-host", "app")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		cid := f.cShim.Adopt(conn)
		arg := make([]byte, 5)
		arg[0], arg[1], arg[2], arg[3] = byte(cid), byte(cid>>8), byte(cid>>16), byte(cid>>24)
		if _, err := f.challenger.Call("attest.c.begin", arg); err != nil {
			t.Fatal(err)
		}
		ev, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	oldEvidence := capture()

	// New run, new nonce: replaying the old evidence must fail.
	l, err := f.hostT.Listen("app")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		sc, err := l.Accept()
		if err != nil {
			return
		}
		f.respond(sc)
	}()
	conn, err := f.hostC.Dial("target-host", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cid := f.cShim.Adopt(conn)
	arg := make([]byte, 5)
	arg[0], arg[1], arg[2], arg[3] = byte(cid), byte(cid>>8), byte(cid>>16), byte(cid>>24)
	if _, err := f.challenger.Call("attest.c.begin", arg); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // discard the genuine evidence
		t.Fatal(err)
	}
	if _, err := f.challenger.Call("attest.c.finish", append(arg[:4:4], oldEvidence...)); err == nil {
		t.Fatal("challenger accepted replayed evidence")
	}
}
