package attest

import (
	"errors"
	"testing"
	"time"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
)

// serveAttest keeps responding to attestation requests on the target
// host, tolerating failed runs (the fault engine kills some mid-flight).
func serveAttest(t *testing.T, f *fixture) *netsim.Listener {
	t.Helper()
	l, err := f.hostT.Listen("app")
	if err != nil {
		t.Fatal(err)
	}
	go l.Serve(func(c *netsim.Conn) {
		_, _ = Respond(nil, "", f.target, f.tShim, f.hostT, c)
	})
	return l
}

func TestChallengeRetrySurvivesDrops(t *testing.T) {
	f := newFixture(t, Policy{})
	// Lossy in both directions between the hosts; local (quoting) links
	// untouched. Server-side receives must time out or failed runs would
	// wedge the responder forever.
	fs := netsim.NewFaultSchedule(1).
		AddLink(netsim.LinkFaults{From: "challenger-host", To: "target-host", DropProb: 0.3}).
		AddLink(netsim.LinkFaults{From: "target-host", To: "challenger-host", DropProb: 0.3})
	f.net.SetFaults(fs)
	f.tShim.SetRecvTimeout(60 * time.Millisecond)
	l := serveAttest(t, f)
	defer l.Close()

	pol := RetryPolicy{Attempts: 12, RecvTimeout: 80 * time.Millisecond}
	conn, cid, id, retries, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState,
		func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }, false, pol)
	if err != nil {
		t.Fatalf("attestation never survived the loss (schedule %v): %v", fs, err)
	}
	defer conn.Close()
	if id.MREnclave != f.target.MREnclave() {
		t.Fatal("attested identity is not the target's")
	}
	if _, ok := f.cState.Session(cid); !ok {
		t.Fatal("no session on the surviving connection")
	}
	if fs.Stats().Dropped == 0 {
		t.Fatal("schedule never dropped anything — test exercises nothing")
	}
	if retries == 0 {
		t.Fatalf("expected at least one retry under 30%% loss (seed %d)", fs.Seed())
	}
	if f.cState.Count() != 1 {
		t.Fatalf("%d sessions after retries, want exactly 1", f.cState.Count())
	}
}

func TestRetryChargesTheMeter(t *testing.T) {
	f := newFixture(t, Policy{})
	// No listener at all: every attempt dies on ErrNoRoute.
	f.challenger.Meter().SnapshotAndReset()
	pol := RetryPolicy{Attempts: 3, RecvTimeout: 20 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: 2 * time.Millisecond}
	_, _, _, _, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState,
		func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }, false, pol)
	if !errors.Is(err, netsim.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if got, want := f.challenger.Meter().Normal(), uint64(2*core.CostRetryAttempt); got != want {
		t.Fatalf("meter normal = %d, want %d (2 retries)", got, want)
	}
}

func TestChallengeTimesOutAgainstSilentTarget(t *testing.T) {
	f := newFixture(t, Policy{})
	l, err := f.hostT.Listen("app")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go l.Serve(func(c *netsim.Conn) { /* accept and say nothing */ })

	f.challenger.Meter().SnapshotAndReset()
	pol := RetryPolicy{Attempts: 2, RecvTimeout: 30 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: time.Millisecond}
	_, _, _, _, err = ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState,
		func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }, false, pol)
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// 2 timed-out receives + 1 retry, on top of two begin-handler runs.
	if got := f.challenger.Meter().Normal(); got < 2*core.CostRecvTimeout+core.CostRetryAttempt {
		t.Fatalf("meter normal = %d, timeouts/retries not charged", got)
	}
	// Both attempts' pending challenges were aborted.
	f.cState.pmu.Lock()
	n := len(f.cState.pending)
	f.cState.pmu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending challenges leaked after aborts", n)
	}
}

func TestPolicyRejectionIsNotRetried(t *testing.T) {
	var wrong core.Measurement
	wrong[0] = 0xee
	f := newFixture(t, Policy{AllowedEnclaves: []core.Measurement{wrong}})
	l := serveAttest(t, f)
	defer l.Close()

	dials := 0
	pol := RetryPolicy{Attempts: 5, RecvTimeout: 200 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: time.Millisecond}
	_, _, _, _, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState,
		func() (*netsim.Conn, error) { dials++; return f.hostC.Dial("target-host", "app") }, false, pol)
	if err == nil {
		t.Fatal("policy rejection vanished")
	}
	var pe *ErrPolicy
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ErrPolicy", err)
	}
	if dials != 1 {
		t.Fatalf("permanent failure retried: %d dials", dials)
	}
}

func TestSessionExpiry(t *testing.T) {
	f := newFixture(t, Policy{})
	f.cState.SetTTL(time.Hour)
	cid, _, ce, te := f.run(t, true)
	if ce != nil || te != nil {
		t.Fatalf("ce=%v te=%v", ce, te)
	}
	s, ok := f.cState.Session(cid)
	if !ok || s.Expires.IsZero() {
		t.Fatal("TTL did not stamp an expiry")
	}
	m := core.NewMeter()
	if _, err := f.cState.Seal(m, cid, []byte("x")); err != nil {
		t.Fatalf("fresh session unusable: %v", err)
	}

	f.cState.Expire(cid)
	beforeN, beforeSGX := m.Normal(), m.SGX()
	if _, err := f.cState.Seal(m, cid, []byte("x")); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("err = %v, want ErrSessionExpired", err)
	}
	// Validate-then-charge: detecting the expired session is a failed
	// validation and must cost zero — the re-establishment cost belongs
	// to the Reestablish driver, not the detection site.
	if m.Normal() != beforeN || m.SGX() != beforeSGX {
		t.Fatalf("expiry detection charged the meter (normal %d→%d, sgx %d→%d); failed validation must cost zero",
			beforeN, m.Normal(), beforeSGX, m.SGX())
	}
	// Evicted: further use reports no session, and the table is clean for
	// the re-attestation that must follow.
	if _, err := f.cState.Open(m, cid, nil); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession after eviction", err)
	}
	if _, ok := f.cState.Session(cid); ok {
		t.Fatal("expired session still listed")
	}
}

// recordingInvalidator captures which peers had their cached
// verification state purged, and when relative to the session table.
type recordingInvalidator struct {
	calls       []uint32
	staleAtCall []bool // whether the stale session still existed when invalidated
	st          *ChallengerState
}

func (r *recordingInvalidator) InvalidatePeer(connID uint32) {
	r.calls = append(r.calls, connID)
	_, ok := r.st.Session(connID)
	r.staleAtCall = append(r.staleAtCall, ok)
}

// TestReestablishInvalidatesAndCharges: the re-establishment driver must
// (a) purge the stale session and the invalidator's cached state before
// dialing, and (b) carry the CostSessionReestablish charge that the
// detection site no longer pays.
func TestReestablishInvalidatesAndCharges(t *testing.T) {
	f := newFixture(t, Policy{})
	f.cState.SetTTL(time.Hour)
	l := serveAttest(t, f)
	dial := func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }
	pol := RetryPolicy{Attempts: 2, RecvTimeout: 200 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: time.Millisecond}
	conn, cid, _, _, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState, dial, true, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f.cState.Expire(cid)
	l.Close() // next dial fails: isolates the driver's own charge

	inv := &recordingInvalidator{st: f.cState}
	f.challenger.Meter().SnapshotAndReset()
	deadDial := func() (*netsim.Conn, error) { return f.hostC.Dial("no-such-host", "app") }
	if _, _, _, _, err := Reestablish(nil, "", f.challenger, f.cShim, f.cState,
		cid, inv, deadDial, true, RetryPolicy{Attempts: 1, RecvTimeout: 20 * time.Millisecond,
			Backoff: time.Millisecond, BackoffMax: time.Millisecond}); err == nil {
		t.Fatal("re-establishment against a dead host succeeded")
	}
	if got, want := f.challenger.Meter().Normal(), uint64(core.CostSessionReestablish); got != want {
		t.Fatalf("re-establishment charged %d, want exactly CostSessionReestablish (%d)", got, want)
	}
	if len(inv.calls) != 1 || inv.calls[0] != cid {
		t.Fatalf("invalidator calls = %v, want exactly [%d]", inv.calls, cid)
	}
	if _, ok := f.cState.Session(cid); ok {
		t.Fatal("stale session survived re-establishment")
	}
}

// TestRevokedThenRetriedPeerAlwaysRejected is the satellite property
// test: however many times an attested-then-revoked peer is retried
// through the re-establishment path, it must always be rejected with a
// policy error — no cached session or quote state may survive
// Reestablish to satisfy a fresh challenge.
func TestRevokedThenRetriedPeerAlwaysRejected(t *testing.T) {
	f := newFixture(t, Policy{})
	f.cState.SetTTL(time.Hour)
	l := serveAttest(t, f)
	defer l.Close()
	dial := func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }
	pol := RetryPolicy{Attempts: 2, RecvTimeout: 200 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: time.Millisecond}
	var revoked core.Measurement
	revoked[0] = 0xba
	for i := 0; i < 5; i++ {
		f.cState.SetPolicy(Policy{}) // peer currently trusted
		conn, cid, id, _, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState, dial, true, pol)
		if err != nil {
			t.Fatalf("iteration %d: establishment failed: %v", i, err)
		}
		if id.MREnclave != f.target.MREnclave() {
			t.Fatalf("iteration %d: wrong peer attested", i)
		}
		// Revoke the peer's build, then expire its session: the next use
		// must force a full re-attestation, which the new policy rejects.
		f.cState.SetPolicy(Policy{AllowedEnclaves: []core.Measurement{revoked}})
		f.cState.Expire(cid)
		if _, err := f.cState.Seal(core.NewMeter(), cid, []byte("x")); !errors.Is(err, ErrSessionExpired) {
			t.Fatalf("iteration %d: expired session still usable: %v", i, err)
		}
		_, _, _, _, rerr := Reestablish(nil, "", f.challenger, f.cShim, f.cState,
			cid, nil, dial, true, pol)
		var pe *ErrPolicy
		if rerr == nil || !errors.As(rerr, &pe) {
			t.Fatalf("iteration %d: revoked-then-retried peer not policy-rejected: %v", i, rerr)
		}
		if f.cState.Count() != 0 {
			t.Fatalf("iteration %d: revoked peer holds %d sessions", i, f.cState.Count())
		}
		conn.Close()
	}
}

func TestTransientClassification(t *testing.T) {
	for _, err := range []error{netsim.ErrTimeout, netsim.ErrClosed, netsim.ErrHostDown, netsim.ErrNoRoute} {
		if !Transient(err) {
			t.Fatalf("%v should be transient", err)
		}
	}
	if Transient(&ErrPolicy{Reason: "revoked build"}) {
		t.Fatal("policy rejection classified transient")
	}
	if Transient(nil) {
		t.Fatal("nil error classified transient")
	}
}
