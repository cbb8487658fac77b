package eval

import (
	"strings"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/nfchain"
	"sgxnet/internal/obs"
	"sgxnet/internal/ratls"
	"sgxnet/internal/xcall"
)

// TestProbeKindAudit holds the probe-kind namespace closed: a strict
// registry installed under a workload that exercises every instrumented
// subsystem (the platform's instruction stream, the data-plane I/O
// shim, the pager, the xcall rings, the TLS record codec) must see only
// kinds that were registered with a doc string. A new Observe call site
// whose kind skipped RegisterKind — or a typo in an existing one —
// fails here by name.
func TestProbeKindAudit(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetStrict(true)
	tr := obs.New(reg)
	core.SetDefaultProbe(reg)
	defer core.SetDefaultProbe(nil)
	r := NewRunner(1)
	r.SetTrace(tr)
	if _, err := r.Table4At(30); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureSend(tr, "audit/table2", 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := epcSweepPoint(tr, nil, 2, 2.0, "clock"); err != nil {
		t.Fatal(err)
	}
	if _, err := xcallSweepPoint(tr, nil, "tls", &xcall.Config{Batch: 16, SpinBudget: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSweepPoint(tr, nil, loadCell{"tls", "poisson", 0.8, "xcall=16"}, 48); err != nil {
		t.Fatal(err)
	}
	if _, err := ratlsSweepPoint(tr, nil, "sgx", 2, 1_000); err != nil {
		t.Fatal(err)
	}
	if _, err := chainSweepPoint(tr, nil, "sgx", 2, 16, 16); err != nil {
		t.Fatal(err)
	}

	if unknown := reg.UnknownKinds(); len(unknown) > 0 {
		t.Fatalf("probe kinds fired without a RegisterKind doc string:\n  %s",
			strings.Join(unknown, "\n  "))
	}

	// The audit only means something if the workload actually fired the
	// families it claims to cover.
	for _, family := range []string{
		core.KindEENTER, core.KindEnclaveOCall, core.KindPacketCrossing,
		core.KindPagerFault, xcall.KindCall, "record.seal",
		ratls.KindVerifyCold, ratls.KindVerifyWarm,
		nfchain.KindProcess, nfchain.KindRuleExamined, nfchain.KindRuleMatch,
		nfchain.KindForward, nfchain.KindMirror, nfchain.KindDrop,
		nfchain.KindTerminate, nfchain.KindAlert, nfchain.KindAdmit,
	} {
		if reg.Get(family) == 0 {
			t.Errorf("audit workload never fired %s — coverage shrank, the empty unknown set proves nothing about that family", family)
		}
	}

	// And every fired counter that looks like a probe family must be
	// documented — including ones fired by subsystems this test did not
	// anticipate (Add-only summary counters like load.sweep.* and
	// event.* instants are exempt by construction: they never pass
	// through Observe).
	for _, k := range obs.KnownKinds() {
		if _, ok := obs.KindDoc(k); !ok {
			t.Errorf("KnownKinds lists %s but KindDoc cannot resolve it", k)
		}
	}
}
