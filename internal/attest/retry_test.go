package attest

import (
	"errors"
	"maps"
	"slices"
	"sync"
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
		func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }, false, &pol)
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
		func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }, false, &pol)
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
		func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }, false, &pol)
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
		func() (*netsim.Conn, error) { dials++; return f.hostC.Dial("target-host", "app") }, false, &pol)
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
	cid, _, ce, te := f.run(t, true)
	if ce != nil || te != nil {
		t.Fatalf("ce=%v te=%v", ce, te)
	}
	if _, ok := f.cState.Session(cid); !ok {
		t.Fatal("attested session not listed")
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

// TestReestablishInvalidatesAndCharges: the re-establishment driver must
// (a) purge the stale session before dialing, and (b) carry the
// CostSessionReestablish charge that the detection site no longer pays.
func TestReestablishInvalidatesAndCharges(t *testing.T) {
	f := newFixture(t, Policy{})
	l := serveAttest(t, f)
	dial := func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }
	pol := RetryPolicy{Attempts: 2, RecvTimeout: 200 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: time.Millisecond}
	conn, cid, _, _, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState, dial, true, &pol)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f.cState.Expire(cid)
	l.Close() // next dial fails: isolates the driver's own charge

	f.challenger.Meter().SnapshotAndReset()
	deadDial := func() (*netsim.Conn, error) { return f.hostC.Dial("no-such-host", "app") }
	if _, _, _, _, err := Reestablish(nil, "", f.challenger, f.cShim, f.cState,
		cid, deadDial, true, &RetryPolicy{Attempts: 1, RecvTimeout: 20 * time.Millisecond,
			Backoff: time.Millisecond, BackoffMax: time.Millisecond}); err == nil {
		t.Fatal("re-establishment against a dead host succeeded")
	}
	if got, want := f.challenger.Meter().Normal(), uint64(core.CostSessionReestablish); got != want {
		t.Fatalf("re-establishment charged %d, want exactly CostSessionReestablish (%d)", got, want)
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
	l := serveAttest(t, f)
	defer l.Close()
	dial := func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") }
	pol := RetryPolicy{Attempts: 2, RecvTimeout: 200 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: time.Millisecond}
	var revoked core.Measurement
	revoked[0] = 0xba
	for i := 0; i < 5; i++ {
		f.cState.SetPolicy(Policy{}) // peer currently trusted
		conn, cid, id, _, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState, dial, true, &pol)
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
			cid, dial, true, &pol)
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

// TestRetryPolicyDo pins the one retry loop: a nil policy is one attempt
// that charges nothing, zero fields take the defaults, an error the
// classifier rejects stops the loop at once, and the backoff doubles up
// to BackoffMax.
func TestRetryPolicyDo(t *testing.T) {
	boom := errors.New("boom")
	always := func(error) bool { return true }
	failing := func(calls *[]int) func(int) error {
		return func(attempt int) error { *calls = append(*calls, attempt); return boom }
	}

	t.Run("nil", func(t *testing.T) {
		var pol *RetryPolicy
		m := core.NewMeter()
		var calls []int
		retries, err := pol.Do(m, always, failing(&calls))
		if len(calls) != 1 || retries != 0 || err != boom {
			t.Fatalf("calls %v, retries %d, err %v; want one attempt and its own error", calls, retries, err)
		}
		if got := m.Snapshot(); got != (core.Tally{}) {
			t.Fatalf("nil policy charged %v", got)
		}
	})

	t.Run("zero", func(t *testing.T) {
		m := core.NewMeter()
		var calls []int
		retries, err := (&RetryPolicy{}).Do(m, always, failing(&calls))
		if want := []int{0, 1, 2, 3}; !slices.Equal(calls, want) || retries != 3 || err != boom {
			t.Fatalf("calls %v, retries %d, err %v; want attempts %v, 3 retries, the last error", calls, retries, err, want)
		}
		if got, want := m.Snapshot(), (core.Tally{Normal: 3 * core.CostRetryAttempt}); got != want {
			t.Fatalf("charged %v, want %v", got, want)
		}
	})

	t.Run("rejected", func(t *testing.T) {
		final := errors.New("final")
		m := core.NewMeter()
		pol := RetryPolicy{Attempts: 10, Backoff: time.Millisecond, BackoffMax: time.Millisecond}
		calls := 0
		retries, err := pol.Do(m, func(err error) bool { return err != final }, func(attempt int) error {
			calls++
			if attempt == 2 {
				return final
			}
			return boom
		})
		if calls != 3 || retries != 2 || err != final {
			t.Fatalf("calls %d, retries %d, err %v; want 3 calls, 2 retries, the rejected error", calls, retries, err)
		}
		if got := m.Normal(); got != 2*core.CostRetryAttempt {
			t.Fatalf("charged %d, want 2 retries' worth", got)
		}
		calls = 0
		if retries, err := pol.Do(m, always, func(attempt int) error {
			calls++
			if attempt < 1 {
				return boom
			}
			return nil
		}); calls != 2 || retries != 1 || err != nil {
			t.Fatalf("calls %d, retries %d, err %v; want success on the second attempt", calls, retries, err)
		}
	})

	// Sleeps of 1, 2, 4, 4, 4, 4, 4, 4 ms: each gap between attempts is
	// at least its backoff, and the whole run stays under the 255 ms an
	// uncapped doubling (1 + 2 + ... + 128) would sleep.
	t.Run("backoff", func(t *testing.T) {
		pol := RetryPolicy{Attempts: 9, Backoff: time.Millisecond, BackoffMax: 4 * time.Millisecond}
		var at []time.Time
		if _, err := pol.Do(nil, always, func(int) error { at = append(at, time.Now()); return boom }); err != boom {
			t.Fatalf("err %v", err)
		}
		want := []time.Duration{1, 2, 4, 4, 4, 4, 4, 4}
		if len(at) != len(want)+1 {
			t.Fatalf("%d attempts, want %d", len(at), len(want)+1)
		}
		for i, w := range want {
			if gap := at[i+1].Sub(at[i]); gap < w*time.Millisecond {
				t.Errorf("retry %d came %v after the attempt before it, want at least %v", i+1, gap, w*time.Millisecond)
			}
		}
		if total := at[len(at)-1].Sub(at[0]); total >= 255*time.Millisecond {
			t.Errorf("retries took %v: the backoff is not capped at %v", total, pol.BackoffMax)
		}
	})
}

// countingProbe tallies the platform probe stream by kind.
type countingProbe struct {
	mu sync.Mutex
	n  map[string]uint64
}

func (p *countingProbe) Observe(kind string, n uint64) {
	p.mu.Lock()
	p.n[kind] += n
	p.mu.Unlock()
}

// TestChallengeRetryNilPolicyIsChallenge: with a nil policy,
// ChallengeRetry is the seed's blocking Challenge without its span. Two
// identical fixtures, one driven each way, must attest the same
// identity, leave the same tallies on the target, quoting and
// challenger enclaves, and emit the same probe stream.
func TestChallengeRetryNilPolicyIsChallenge(t *testing.T) {
	type outcome struct {
		id                          Identity
		target, quoting, challenger core.Tally
		probes                      map[string]uint64
	}
	run := func(wantDH bool, challenge func(f *fixture, dial func() (*netsim.Conn, error)) (Identity, error)) outcome {
		f := newFixture(t, Policy{})
		probe := &countingProbe{n: map[string]uint64{}}
		f.hostT.Platform().SetProbe(probe)
		f.hostC.Platform().SetProbe(probe)
		f.target.Meter().SnapshotAndReset()
		f.agentT.QE.Meter().SnapshotAndReset()
		f.challenger.Meter().SnapshotAndReset()
		l, err := f.hostT.Listen("app")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		served := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				_, err = f.respond(c)
			}
			served <- err
		}()
		id, err := challenge(f, func() (*netsim.Conn, error) { return f.hostC.Dial("target-host", "app") })
		if err != nil {
			t.Fatalf("dh=%v: challenger: %v", wantDH, err)
		}
		if err := <-served; err != nil {
			t.Fatalf("dh=%v: target: %v", wantDH, err)
		}
		if id != IdentityOf(f.target) {
			t.Fatalf("dh=%v: attested %+v, not the target", wantDH, id)
		}
		probe.mu.Lock()
		defer probe.mu.Unlock()
		return outcome{id: id, target: f.target.Meter().Snapshot(), quoting: f.agentT.QE.Meter().Snapshot(),
			challenger: f.challenger.Meter().Snapshot(), probes: maps.Clone(probe.n)}
	}
	for _, wantDH := range []bool{false, true} {
		want := run(wantDH, func(f *fixture, dial func() (*netsim.Conn, error)) (Identity, error) {
			conn, err := dial()
			if err != nil {
				return Identity{}, err
			}
			_, id, err := Challenge(nil, "", f.challenger, f.cShim, conn, wantDH)
			return id, err
		})
		got := run(wantDH, func(f *fixture, dial func() (*netsim.Conn, error)) (Identity, error) {
			_, _, id, retries, err := ChallengeRetry(nil, "", f.challenger, f.cShim, f.cState, dial, wantDH, nil)
			if retries != 0 {
				t.Fatalf("dh=%v: nil policy retried %d times", wantDH, retries)
			}
			return id, err
		})
		if got.id.MREnclave != want.id.MREnclave || got.id.Debug != want.id.Debug {
			t.Errorf("dh=%v: identity %+v, Challenge attested %+v", wantDH, got.id, want.id)
		}
		for _, c := range []struct {
			role      string
			got, want core.Tally
		}{{"target", got.target, want.target}, {"quoting", got.quoting, want.quoting},
			{"challenger", got.challenger, want.challenger}} {
			if c.got != c.want {
				t.Errorf("dh=%v %s: %v, Challenge left %v", wantDH, c.role, c.got, c.want)
			}
		}
		if !maps.Equal(got.probes, want.probes) {
			t.Errorf("dh=%v: probes %v, Challenge emitted %v", wantDH, got.probes, want.probes)
		}
		if len(want.probes) == 0 {
			t.Errorf("dh=%v: no probe observed anything", wantDH)
		}
	}
}
