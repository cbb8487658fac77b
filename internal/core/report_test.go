package core

import (
	"testing"
	"testing/quick"
)

// launchPair launches two enclaves (A, B) on the same platform plus a
// helper for cross-verifying reports.
func launchPair(t *testing.T) (*Platform, *Enclave, *Enclave) {
	t.Helper()
	p := testPlatform(t)
	s := mustSigner(t)
	mk := func(name string) *Program {
		return &Program{
			Name:    name,
			Version: "1",
			Handlers: map[string]Handler{
				"report": func(env *Env, arg []byte) ([]byte, error) {
					var ti TargetInfo
					copy(ti.Measurement[:], arg[:32])
					r := env.EReport(ti, ReportDataFrom(arg[32:]))
					return r.Marshal(), nil
				},
				"verify": func(env *Env, arg []byte) ([]byte, error) {
					r, ok := UnmarshalReport(arg)
					if !ok {
						return []byte{0}, nil
					}
					if env.VerifyReport(r) {
						return []byte{1}, nil
					}
					return []byte{0}, nil
				},
			},
		}
	}
	a, err := p.Launch(mk("prog-a"), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Launch(mk("prog-b"), s)
	if err != nil {
		t.Fatal(err)
	}
	return p, a, b
}

func makeReport(t *testing.T, from, to *Enclave, payload []byte) Report {
	t.Helper()
	target := to.MREnclave()
	arg := append(append([]byte{}, target[:]...), payload...)
	out, err := from.Call("report", arg)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := UnmarshalReport(out)
	if !ok {
		t.Fatal("bad report encoding")
	}
	return r
}

func verifyReport(t *testing.T, in *Enclave, r Report) bool {
	t.Helper()
	out, err := in.Call("verify", r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return out[0] == 1
}

func TestLocalAttestationRoundTrip(t *testing.T) {
	_, a, b := launchPair(t)
	r := makeReport(t, a, b, []byte("dh-pub"))
	if r.MREnclave != a.MREnclave() || r.MRSigner != a.MRSigner() {
		t.Fatal("report carries wrong identities")
	}
	if !verifyReport(t, b, r) {
		t.Fatal("target rejected genuine report")
	}
}

func TestReportNotVerifiableByThirdEnclave(t *testing.T) {
	_, a, b := launchPair(t)
	r := makeReport(t, a, b, nil)
	// a itself is not the target: its report key differs.
	if verifyReport(t, a, r) {
		t.Fatal("non-target enclave verified a report not addressed to it")
	}
}

func TestReportTamperDetected(t *testing.T) {
	_, a, b := launchPair(t)
	r := makeReport(t, a, b, []byte("x"))
	cases := []func(*Report){
		func(r *Report) { r.MREnclave[0] ^= 1 },
		func(r *Report) { r.MRSigner[0] ^= 1 },
		func(r *Report) { r.Data[0] ^= 1 },
		func(r *Report) { r.MAC[0] ^= 1 },
		func(r *Report) { r.Attributes.Debug = !r.Attributes.Debug },
		func(r *Report) { r.KeyID[0] ^= 1 },
	}
	for i, mutate := range cases {
		rr := r
		mutate(&rr)
		if verifyReport(t, b, rr) {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestReportCrossPlatformRejected(t *testing.T) {
	_, a1, b1 := launchPair(t)
	_, _, b2 := launchPair(t) // different platform, same programs
	if a1.MREnclave() == b1.MREnclave() {
		t.Fatal("setup: distinct programs expected")
	}
	// Report from platform-1's A targeted at "prog-b" measurement; B on
	// platform 2 has the same measurement but a different platform secret.
	r := makeReport(t, a1, b2, nil)
	if verifyReport(t, b2, r) {
		t.Fatal("report verified across platforms — local attestation must be platform-bound")
	}
	if !verifyReport(t, b1, r) {
		t.Fatal("same-platform target rejected genuine report")
	}
}

func TestUnmarshalReportLengthCheck(t *testing.T) {
	if _, ok := UnmarshalReport(nil); ok {
		t.Fatal("nil parsed")
	}
	if _, ok := UnmarshalReport(make([]byte, 10)); ok {
		t.Fatal("short buffer parsed")
	}
}

func TestReportMarshalRoundTripProperty(t *testing.T) {
	f := func(mre, mrs [32]byte, data [64]byte, keyID [16]byte, mac [32]byte, debug, arch bool) bool {
		r := Report{
			MREnclave:  mre,
			MRSigner:   mrs,
			Attributes: Attributes{Debug: debug, Architectural: arch},
			Data:       data,
			KeyID:      keyID,
			MAC:        mac,
		}
		got, ok := UnmarshalReport(r.Marshal())
		return ok && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReportDataFromDeterministic(t *testing.T) {
	a := ReportDataFrom([]byte("hello"))
	b := ReportDataFrom([]byte("hello"))
	c := ReportDataFrom([]byte("hellp"))
	if a != b {
		t.Fatal("not deterministic")
	}
	if a == c {
		t.Fatal("distinct inputs collided")
	}
}

func TestNonceDataBindsNonce(t *testing.T) {
	if NonceData(1, []byte("p")) == NonceData(2, []byte("p")) {
		t.Fatal("nonce not bound")
	}
	if NonceData(1, []byte("p")) == NonceData(1, []byte("q")) {
		t.Fatal("payload not bound")
	}
}

func TestEReportChargesInstructions(t *testing.T) {
	_, a, b := launchPair(t)
	a.Meter().SnapshotAndReset()
	makeReport(t, a, b, nil)
	// EENTER + EEXIT + EREPORT = 3 SGX(U).
	if got := a.Meter().SGX(); got != 3 {
		t.Fatalf("SGX(U) = %d, want 3", got)
	}
	b.Meter().SnapshotAndReset()
	r := makeReport(t, a, b, nil)
	b.Meter().SnapshotAndReset()
	verifyReport(t, b, r)
	// EENTER + EEXIT + EGETKEY = 3 SGX(U).
	if got := b.Meter().SGX(); got != 3 {
		t.Fatalf("verify SGX(U) = %d, want 3", got)
	}
}
