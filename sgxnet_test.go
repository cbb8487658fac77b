package sgxnet_test

import (
	"testing"

	"sgxnet"
)

// TestFacadeAttestationFlow exercises the public API end to end: two SGX
// hosts, a target and a challenger enclave, remote attestation with DH,
// and a message over the bootstrapped channel.
func TestFacadeAttestationFlow(t *testing.T) {
	net := sgxnet.NewNetwork()
	arch, err := sgxnet.NewArchSigner()
	if err != nil {
		t.Fatal(err)
	}
	hostT, err := sgxnet.NewSGXHost(net, "server", arch)
	if err != nil {
		t.Fatal(err)
	}
	hostC, err := sgxnet.NewSGXHost(net, "client", arch)
	if err != nil {
		t.Fatal(err)
	}

	signer, err := sgxnet.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	tst := sgxnet.NewTargetState()
	tprog := &sgxnet.Program{Name: "facade-target", Version: "1", Handlers: map[string]sgxnet.Handler{}}
	sgxnet.AddTargetHandlers(tprog, tst)
	target, err := hostT.Platform().Launch(tprog, signer)
	if err != nil {
		t.Fatal(err)
	}
	tShim := sgxnet.NewMsgShim(hostT, target.Meter())
	target.BindHost(tShim)

	cst := sgxnet.NewChallengerState(sgxnet.AttestPolicy{
		AllowedEnclaves: []sgxnet.Measurement{sgxnet.MeasureProgram(tprog)},
	})
	cprog := &sgxnet.Program{Name: "facade-challenger", Version: "1", Handlers: map[string]sgxnet.Handler{}}
	sgxnet.AddChallengerHandlers(cprog, cst)
	challenger, err := hostC.Platform().Launch(cprog, signer)
	if err != nil {
		t.Fatal(err)
	}
	cShim := sgxnet.NewMsgShim(hostC, challenger.Meter())
	challenger.BindHost(cShim)

	l, err := hostT.Listen("app")
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		cid uint32
		err error
	}
	ch := make(chan res, 1)
	go func() {
		sc, err := l.Accept()
		if err != nil {
			ch <- res{0, err}
			return
		}
		cid, err := sgxnet.Respond(target, tShim, hostT, sc)
		ch <- res{cid, err}
	}()
	conn, err := hostC.Dial("server", "app")
	if err != nil {
		t.Fatal(err)
	}
	ccid, id, err := sgxnet.Challenge(challenger, cShim, conn, true)
	if err != nil {
		t.Fatal(err)
	}
	if id.MREnclave != target.MREnclave() {
		t.Fatal("attested identity mismatch")
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}

	// The bootstrapped channels interoperate.
	cs, ok := cst.Session(ccid)
	if !ok || cs.Channel == nil {
		t.Fatal("challenger session missing")
	}
	ts, ok := tst.Session(r.cid)
	if !ok || ts.Channel == nil {
		t.Fatal("target session missing")
	}
	m := sgxnet.Meter{}
	sealed, err := cs.Channel.Seal(&m, []byte("hello enclave"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ts.Channel.Open(&m, sealed)
	if err != nil || string(got) != "hello enclave" {
		t.Fatalf("%q %v", got, err)
	}
	if sgxnet.CyclesOf(1, 10) != 10_018 {
		t.Fatal("cycle formula broken")
	}
}
