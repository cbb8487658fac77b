package sdnctl

import (
	"testing"

	"sgxnet/internal/bgp"
)

// TestRunSGXRATLSAmortizes: the certificate-gated deployment converges
// to the same routes as the plain SGX run, and the controller's
// certificate is verified cold exactly once — every other AS hits the
// shared cache.
func TestRunSGXRATLSAmortizes(t *testing.T) {
	tp := canonicalTopo(t, 6)
	rep, err := RunSGX(tp, SGXConfig{RATLSShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RATLSCold != 1 {
		t.Fatalf("RATLSCold = %d, want 1 (one full verification for N connections)", rep.RATLSCold)
	}
	if rep.RATLSWarm != uint64(rep.N-1) {
		t.Fatalf("RATLSWarm = %d, want %d", rep.RATLSWarm, rep.N-1)
	}
	if rep.Attestations != rep.N {
		t.Fatalf("Attestations = %d, want %d", rep.Attestations, rep.N)
	}
	want, _ := bgp.ComputeAll(tp)
	if !bgp.RIBsEqual(rep.RIBs, want) {
		t.Fatal("RATLS deployment diverged from clean computation")
	}
	for a := 0; a < rep.N; a++ {
		if len(rep.Installed[a]) != len(want[a]) {
			t.Fatalf("AS%d installed %d routes, want %d", a, len(rep.Installed[a]), len(want[a]))
		}
	}
}

// TestRunSGXRATLSPlainRunUnaffected: without the RATLS option the
// deployment keeps the seed identity and reports no certificate
// traffic — the option is strictly additive.
func TestRunSGXRATLSPlainRunUnaffected(t *testing.T) {
	if ControllerMeasurementRATLS(4) == ControllerMeasurement(4) {
		t.Fatal("RATLS handlers do not show in the controller measurement")
	}
	rep, err := RunSGX(canonicalTopo(t, 4), SGXConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RATLSCold != 0 || rep.RATLSWarm != 0 {
		t.Fatalf("plain run reports certificate traffic: cold=%d warm=%d", rep.RATLSCold, rep.RATLSWarm)
	}
}

// recordingInvalidator captures re-establishment purges.
type recordingInvalidator struct{ calls []uint32 }

func (r *recordingInvalidator) InvalidatePeer(cid uint32) { r.calls = append(r.calls, cid) }

// TestReattestInvalidatesCachedVerdicts: when a channel dies and the
// AS-local controller re-attests, the Invalidator fires — with the old
// connection's ID — before the fresh challenge runs, so verification
// caches keyed to the old attestation cannot satisfy the new one.
func TestReattestInvalidatesCachedVerdicts(t *testing.T) {
	tp := canonicalTopo(t, 4)
	_, err := RunSGX(tp, SGXConfig{After: func(ctl *Controller, locals []*ASLocal) error {
		rec := &recordingInvalidator{}
		locals[0].SetRetryPolicy(faultPolicy())
		locals[0].SetInvalidator(rec)
		oldConn := locals[0].connID
		locals[0].conn.Close()
		waitBound(t, ctl, 3)
		if _, err := locals[0].Do(&Request{GetRoutes: true}); err != nil {
			t.Fatalf("Do after channel loss: %v", err)
		}
		if locals[0].Reattests != 1 {
			t.Fatalf("Reattests = %d, want 1", locals[0].Reattests)
		}
		if len(rec.calls) != 1 || rec.calls[0] != oldConn {
			t.Fatalf("invalidator calls %v, want exactly one for conn %d", rec.calls, oldConn)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
}
