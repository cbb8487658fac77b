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
// rather than looking free.

// RetryPolicy bounds the attestation retry loop.
type RetryPolicy struct {
	// Attempts is the total number of protocol runs tried (first attempt
	// included) before giving up.
	Attempts int

	// RecvTimeout is the deadline on each untrusted receive in the
	// driver; it is also the natural value for the server-side shim's
	// SetRecvTimeout. Zero blocks forever (the pre-hardening behavior).
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

func (p RetryPolicy) withDefaults() RetryPolicy {
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

// ChallengeRetry runs the challenger side with deadlines and bounded
// exponential backoff. dial opens a fresh connection per attempt — the
// application owns addressing and any preamble it must send before the
// protocol (e.g. a service banner). On success it returns the live
// connection, its connID (holding the established session), the attested
// identity, and how many retries were needed. Pending enclave state of
// failed attempts is aborted, and each retry charges
// core.CostRetryAttempt to the challenger enclave's meter. With a
// non-nil trace, every retry records an "attest.retry" instant event on
// track (with the attempt number and the error that forced it), and the
// enclave rounds of each attempt become spans, so a trace shows exactly
// how much of an attestation's cost the network adversary caused. A nil
// trace records nothing.
func ChallengeRetry(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, st *ChallengerState,
	dial func() (*netsim.Conn, error), wantDH bool, pol RetryPolicy) (*netsim.Conn, uint32, Identity, int, error) {
	pol = pol.withDefaults()
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			enc.Meter().ChargeNormal(core.CostRetryAttempt)
			tr.Event(track, "attest.retry", map[string]string{
				"attempt": fmt.Sprint(attempt),
				"cause":   lastErr.Error(),
			})
			time.Sleep(backoff)
			backoff *= 2
			if backoff > pol.BackoffMax {
				backoff = pol.BackoffMax
			}
		}
		conn, err := dial()
		if err != nil {
			lastErr = err
			if !Transient(err) {
				break
			}
			continue
		}
		cid, id, err := challengeOnce(tr, track, enc, shim, conn, wantDH, pol.RecvTimeout)
		if err == nil {
			return conn, cid, id, attempt, nil
		}
		st.Abort(cid)
		// finish may have stored a session before the ack was lost; the
		// connection is dead, so the session goes with it.
		st.Drop(cid)
		lastErr = err
		if !Transient(err) {
			break
		}
	}
	return nil, 0, Identity{}, pol.Attempts - 1,
		fmt.Errorf("attest: attestation failed after %d attempts: %w", pol.Attempts, lastErr)
}

// An Invalidator purges verification state cached outside the session
// table — a quote-verification cache, an admission ledger — that was
// derived from the peer's previous attestation. Re-establishment must
// call it before the fresh challenge runs: a cache entry keyed to the
// old quote would otherwise let a replayed stale quote satisfy the new
// connection without ever being re-verified against the current policy.
type Invalidator interface {
	InvalidatePeer(connID uint32)
}

// Reestablish replaces an expired (or revoked) session with a freshly
// attested one, in the only safe order: first every trace of the old
// attestation is destroyed — the pending protocol state and stored
// session on the old connection, plus whatever the Invalidator cached
// from the old quote — and only then does a new ChallengeRetry run. The
// scheduling work is what core.CostSessionReestablish prices, so it is
// charged here (once per re-establishment, before the retry loop adds
// its own per-attempt costs); detection of the expiry itself, in
// SessionTable.live, charges nothing. A fresh attestation of a
// since-revoked peer fails the challenger's current Policy, because no
// cached verdict survives to shortcut the check.
func Reestablish(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, st *ChallengerState,
	oldConnID uint32, inv Invalidator, dial func() (*netsim.Conn, error), wantDH bool, pol RetryPolicy) (*netsim.Conn, uint32, Identity, int, error) {
	st.Abort(oldConnID)
	st.Drop(oldConnID)
	if inv != nil {
		inv.InvalidatePeer(oldConnID)
	}
	enc.Meter().ChargeNormal(core.CostSessionReestablish)
	tr.Event(track, "attest.reestablish", map[string]string{
		"conn": fmt.Sprint(oldConnID),
	})
	return ChallengeRetry(tr, track, enc, shim, st, dial, wantDH, pol)
}
