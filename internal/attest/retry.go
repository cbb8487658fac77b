package attest

import (
	"errors"
	"fmt"
	"time"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
)

// Retry driver for remote attestation under a faulty network. The paper's
// 9-message flow assumes every message arrives; against the adversary's
// residual powers — delay, loss, reordering, denial of service — the
// challenger needs deadlines and bounded retries. Each retry restarts the
// whole protocol on a fresh connection with a fresh nonce (partial runs
// cannot be resumed: the quote binds the nonce), and each charges the
// challenger enclave's meter, so robustness shows up in the cost tables
// rather than looking free. RetryPolicy.Do is the one retry loop: the
// attestation drivers below and the tor client's circuit builds run on
// it.

// RetryPolicy bounds a retry loop (see Do). A nil *RetryPolicy is the
// seed's behavior: one attempt whose receives block.
type RetryPolicy struct {
	// Attempts is the total number of protocol runs tried (first attempt
	// included) before giving up.
	Attempts int

	// RecvTimeout is the deadline on each untrusted receive in the
	// driver; it is also the natural value for the server-side shim's
	// SetRecvTimeout.
	RecvTimeout time.Duration

	// Backoff is the sleep before the second attempt; it doubles per
	// retry, capped at BackoffMax.
	Backoff    time.Duration
	BackoffMax time.Duration
}

// DefaultRetryPolicy is tuned for the simulator's time scale: fault
// schedules delay links by milliseconds, so a 250ms deadline separates
// "lost" from "slow" with wide margin while keeping tests fast.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 4, RecvTimeout: 250 * time.Millisecond,
		Backoff: 10 * time.Millisecond, BackoffMax: 200 * time.Millisecond}
}

// WithDefaults fills every zero (or negative) field from
// DefaultRetryPolicy. Holders of a policy resolve it once, so the
// deadlines they arm and the attempts and backoff Do runs agree.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.Attempts <= 0 {
		p.Attempts = d.Attempts
	}
	if p.RecvTimeout <= 0 {
		p.RecvTimeout = d.RecvTimeout
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = d.BackoffMax
	}
	return p
}

// Do is the retry loop. It calls try with attempt 0, 1, ... until try
// succeeds, fails with an error retryable rejects, or the policy's
// attempts (zero fields defaulted) run out, and returns how many
// retries it made with the last attempt's error. Before each retry it
// charges core.CostRetryAttempt to m and sleeps the backoff, which
// doubles per retry up to BackoffMax. A nil policy makes one attempt:
// no charge, no sleep, and the attempt's own error.
func (p *RetryPolicy) Do(m *core.Meter, retryable func(error) bool, try func(attempt int) error) (retries int, err error) {
	if p == nil {
		return 0, try(0)
	}
	pol := p.WithDefaults()
	backoff := pol.Backoff
	for attempt := 0; ; attempt++ {
		err = try(attempt)
		if err == nil || attempt+1 >= pol.Attempts || !retryable(err) {
			return attempt, err
		}
		m.ChargeNormal(core.CostRetryAttempt)
		time.Sleep(backoff)
		backoff = min(2*backoff, pol.BackoffMax)
	}
}

// Transient reports whether an attestation failure is worth retrying.
// Policy rejections are final — the peer's build is not on the whitelist,
// and dialing again will not change its measurement. Everything else
// (timeouts, closed connections, crashed hosts, corrupted or truncated
// messages) is attributed to the network adversary, whose interference a
// fresh run can outlast.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var pe *ErrPolicy
	return !errors.As(err, &pe)
}

// ChallengeRetry runs the challenger side on pol's retry loop (Do),
// with pol's deadline on every untrusted receive. dial opens a fresh
// connection per attempt — the application owns addressing and any
// preamble it must send before the protocol (e.g. a service banner).
// On success it returns the live connection, its connID (holding the
// established session), the attested identity, and how many retries
// were needed. Pending enclave state of failed attempts is aborted, and
// each retry charges core.CostRetryAttempt to the challenger enclave's
// meter. A nil pol is one attempt whose receives block: Challenge
// without its span, returning the attempt's own error. With a non-nil
// trace, every retry records an "attest.retry" instant event on track
// (with the attempt number and the error that forced it), and the
// enclave rounds of each attempt become spans, so a trace shows exactly
// how much of an attestation's cost the network adversary caused. A nil
// trace records nothing.
func ChallengeRetry(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, st *ChallengerState,
	dial func() (*netsim.Conn, error), wantDH bool, pol *RetryPolicy) (*netsim.Conn, uint32, Identity, int, error) {
	var recvTimeout time.Duration // nil policy: block
	if pol != nil {
		recvTimeout = pol.WithDefaults().RecvTimeout
	}
	var (
		conn    *netsim.Conn
		cid     uint32
		id      Identity
		lastErr error
	)
	retries, err := pol.Do(enc.Meter(), Transient, func(attempt int) error {
		if attempt > 0 {
			tr.Event(track, "attest.retry", map[string]string{
				"attempt": fmt.Sprint(attempt),
				"cause":   lastErr.Error(),
			})
		}
		if conn, lastErr = dial(); lastErr != nil {
			return lastErr
		}
		if cid, id, lastErr = challengeOnce(tr, track, enc, shim, conn, wantDH, recvTimeout); lastErr != nil {
			st.Abort(cid)
			// finish may have stored a session before the ack was lost;
			// the connection is dead, so the session goes with it.
			st.Drop(cid)
		}
		return lastErr
	})
	if err != nil {
		if pol != nil {
			err = fmt.Errorf("attest: attestation failed after %d attempts: %w", retries+1, err)
		}
		return nil, 0, Identity{}, retries, err
	}
	return conn, cid, id, retries, nil
}

// Reestablish replaces an expired (or revoked) session with a freshly
// attested one, in the only safe order: first every trace of the old
// attestation is destroyed — the pending protocol state and stored
// session on the old connection — and only then does a new
// ChallengeRetry run. The scheduling work is what
// core.CostSessionReestablish prices, so it is charged here (once per
// re-establishment, before the retry loop adds its own per-attempt
// costs); detection of the expiry itself, in SessionTable.live, charges
// nothing. A fresh attestation of a since-revoked peer fails the
// challenger's current Policy, because no stored session survives to
// shortcut the check.
func Reestablish(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, st *ChallengerState,
	oldConnID uint32, dial func() (*netsim.Conn, error), wantDH bool, pol *RetryPolicy) (*netsim.Conn, uint32, Identity, int, error) {
	st.Abort(oldConnID)
	st.Drop(oldConnID)
	enc.Meter().ChargeNormal(core.CostSessionReestablish)
	tr.Event(track, "attest.reestablish", map[string]string{
		"conn": fmt.Sprint(oldConnID),
	})
	return ChallengeRetry(tr, track, enc, shim, st, dial, wantDH, pol)
}
