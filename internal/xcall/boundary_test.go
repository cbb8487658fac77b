package xcall

import (
	"testing"

	"sgxnet/internal/core"
)

// echoHost answers every service with its argument.
var echoHost = core.HostFunc(func(service string, arg []byte) ([]byte, error) {
	return append([]byte(nil), arg...), nil
})

// probed installs a fresh counting probe on enc's platform.
func probed(enc *core.Enclave) *countingProbe {
	p := &countingProbe{counts: map[string]uint64{}}
	enc.Platform().SetProbe(p)
	return p
}

// relayN makes n ECALLs through call, each relaying one OCALL.
func relayN(t *testing.T, call func(fn string, arg []byte) ([]byte, error), n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		out, err := call("relay", []byte{byte(i)})
		if err != nil || len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("relay %d: %v, %v", i, out, err)
		}
	}
}

// sameCharges requires two enclaves' meters and probe streams to agree.
func sameCharges(t *testing.T, a, b *core.Enclave, pa, pb *countingProbe) {
	t.Helper()
	if ta, tb := a.Meter().Snapshot(), b.Meter().Snapshot(); ta != tb {
		t.Fatalf("boundary charged %+v, reference %+v", ta, tb)
	}
	for _, k := range []string{core.KindEENTER, core.KindEEXIT, core.KindERESUME, core.KindEnclaveCall,
		core.KindEnclaveOCall, KindCall, KindDrain, KindFallback, KindPark} {
		if pa.get(k) != pb.get(k) {
			t.Fatalf("%s: boundary fired %d, reference %d", k, pa.get(k), pb.get(k))
		}
	}
}

// TestSyncBoundaryChargesLikeEnclave: a boundary built from a nil
// config is the enclave itself — Call is Enclave.Call, the host it
// returns leaves every crossing to Env.OCall, and it has no rings.
func TestSyncBoundaryChargesLikeEnclave(t *testing.T) {
	a, b := testEnclave(t), testEnclave(t)
	pa, pb := probed(a), probed(b)
	xb := Attach(a, nil)
	a.BindHost(xb.Host(echoHost))
	b.BindHost(echoHost)
	relayN(t, xb.Call, 5)
	relayN(t, b.Call, 5)
	xb.Flush()
	sameCharges(t, a, b, pa, pb)
	if got := a.Meter().Snapshot().SGXU; got != 5*4 {
		t.Fatalf("5 relays charged %d SGX(U), want 20 (EENTER, EEXIT, EEXIT, ERESUME each)", got)
	}
	if pa.get(core.KindEnclaveOCall) != 5 {
		t.Fatalf("enclave.ocall = %d, want 5", pa.get(core.KindEnclaveOCall))
	}
	if xb.Batch() != 0 || xb.Stats() != (Stats{}) {
		t.Fatalf("synchronous boundary: batch %d, stats %+v", xb.Batch(), xb.Stats())
	}
}

// TestSwitchlessBoundaryChargesLikeRings: a boundary built from a
// config charges exactly what a call ring and an OCALL ring wired by
// hand charge, and its Stats and Flush cover both.
func TestSwitchlessBoundaryChargesLikeRings(t *testing.T) {
	cfg := &Config{Capacity: 8, Batch: 4, SpinBudget: 16}
	a, b := testEnclave(t), testEnclave(t)
	pa, pb := probed(a), probed(b)
	xb := Attach(a, cfg)
	a.BindHost(xb.Host(echoHost))
	cr, or := NewCallRing(b, *cfg), newOCallRing(b, echoHost, *cfg)
	b.BindHost(or)
	relayN(t, xb.Call, 11)
	relayN(t, cr.Call, 11)
	xb.Flush()
	if err := cr.Flush(); err != nil {
		t.Fatal(err)
	}
	chargeFlush(&or.ring, b)
	sameCharges(t, a, b, pa, pb)
	if got, want := xb.Stats(), cr.Stats().Add(or.snapshot()); got != want {
		t.Fatalf("boundary stats %+v, rings %+v", got, want)
	}
	if xb.Stats().Drains == 0 || xb.Batch() != 4 {
		t.Fatalf("switchless boundary: batch %d, stats %+v", xb.Batch(), xb.Stats())
	}
}

// TestOCallRingFallbackIsAnOCall: a ring fallback is a synchronous
// crossing and counts in enclave.ocall like Env.OCall's own; an
// enqueued request is not one.
func TestOCallRingFallbackIsAnOCall(t *testing.T) {
	enc := testEnclave(t)
	p := probed(enc)
	r := newOCallRing(enc, echoHost, Config{Capacity: 8, Batch: 4, SpinBudget: 100})
	enc.BindHost(r)
	relayN(t, enc.Call, 1) // the doorbell: a fallback
	if p.get(core.KindEnclaveOCall) != 1 || p.get(core.KindERESUME) != 1 || p.get(KindFallback) != 1 {
		t.Fatalf("fallback: %+v", p.counts)
	}
	if got := enc.Meter().Snapshot().SGXU; got != 4 {
		t.Fatalf("ECALL + fallback charged %d SGX(U), want 4", got)
	}
	relayN(t, enc.Call, 1) // enqueued: switchless
	if p.get(core.KindEnclaveOCall) != 1 || p.get(KindCall) != 1 {
		t.Fatalf("enqueue: %+v", p.counts)
	}
}
