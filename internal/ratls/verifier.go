package ratls

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
)

// ErrRejected is wrapped by every admission refusal.
var ErrRejected = errors.New("ratls: certificate rejected")

// entry is one cached verification verdict.
type entry struct {
	epoch uint64 // cache epoch the verdict was computed under
	id    attest.Identity
	inst  [16]byte
}

// shard is one lock-striped slice of the cache, keyed by the
// certificate's bytes.
type shard struct {
	mu sync.Mutex
	m  map[string]entry
}

// Stats is a point-in-time snapshot of verifier activity.
type Stats struct {
	Cold    uint64 // full verifications (cache misses)
	Warm    uint64 // cache hits
	Rejects uint64 // refused admissions
	Entries int    // cached verdicts (any epoch)
}

// HitRate is warm admissions over all admissions, in [0,1].
func (s Stats) HitRate() float64 {
	total := s.Cold + s.Warm
	if total == 0 {
		return 0
	}
	return float64(s.Warm) / float64(total)
}

// Verifier admits peers by RA-TLS certificate: full verification on
// first sight, a sharded cache keyed by the certificate's bytes
// afterwards. Its policy is fixed when it is built. Revocation works by
// epoch — InvalidateAll bumps it, so every cached verdict silently
// expires and the next admission re-verifies in full. The instance
// table rejects Sybil re-registration: one enclave instance may
// register under exactly one peer name.
//
// All methods are safe for concurrent use; the meter passed to Admit is
// the caller's (each admitting endpoint charges its own verification).
type Verifier struct {
	// Probe, when non-nil, is notified once per admission attempt (the
	// Kind* constants in kinds.go). Observations ride outside the meter.
	Probe core.Probe

	pol    attest.Policy // fixed by NewVerifier, so read without a lock
	epoch  atomic.Uint64
	shards []shard

	mu   sync.Mutex
	inst map[[16]byte]string // instance ID → registered peer name

	cold    atomic.Uint64
	warm    atomic.Uint64
	rejects atomic.Uint64
}

// NewVerifier builds a verifier over `shards` lock stripes (minimum 1).
func NewVerifier(pol attest.Policy, shards int) *Verifier {
	if shards < 1 {
		shards = 1
	}
	v := &Verifier{
		pol:    pol,
		shards: make([]shard, shards),
		inst:   make(map[[16]byte]string),
	}
	for i := range v.shards {
		v.shards[i].m = make(map[string]entry)
	}
	return v
}

// shardOf returns the shard that caches raw. It is picked by the first
// byte of a certificate's proof-of-possession signature, the low byte of
// the signature's R point, which is spread evenly over certificates (the
// signature's last byte, the top of S, only takes 17 values). Input too
// short to hold a signature takes shard 0.
func (v *Verifier) shardOf(raw []byte) *shard {
	i := 0
	if len(raw) >= ed25519.SignatureSize {
		i = int(raw[len(raw)-ed25519.SignatureSize]) % len(v.shards)
	}
	return &v.shards[i]
}

// InvalidateAll revokes every cached verdict: the next admission of any
// certificate is a full verification. Instance registrations survive.
func (v *Verifier) InvalidateAll() { v.epoch.Add(1) }

// Stats snapshots the verifier counters.
func (v *Verifier) Stats() Stats {
	s := Stats{
		Cold:    v.cold.Load(),
		Warm:    v.warm.Load(),
		Rejects: v.rejects.Load(),
	}
	for i := range v.shards {
		v.shards[i].mu.Lock()
		s.Entries += len(v.shards[i].m)
		v.shards[i].mu.Unlock()
	}
	return s
}

func (v *Verifier) observe(kind string) {
	if v.Probe != nil {
		v.Probe.Observe(kind, 1)
	}
}

func (v *Verifier) reject(format string, args ...any) error {
	v.rejects.Add(1)
	v.observe(KindReject)
	return fmt.Errorf("%w: %s", ErrRejected, fmt.Sprintf(format, args...))
}

// rejectErr wraps a causal error (e.g. *attest.ErrPolicy) so callers
// can still errors.As into it.
func (v *Verifier) rejectErr(err error) error {
	v.rejects.Add(1)
	v.observe(KindReject)
	return fmt.Errorf("%w: %w", ErrRejected, err)
}

// bindInstance enforces one peer name per enclave instance. Caller
// holds no shard lock.
func (v *Verifier) bindInstance(inst [16]byte, peer string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	prev, ok := v.inst[inst]
	if !ok {
		v.inst[inst] = peer
		return nil
	}
	if prev != peer {
		return fmt.Errorf("instance already registered as %q (Sybil re-registration)", prev)
	}
	return nil
}

// Admit verifies a serialized certificate for the named peer and
// returns the attested identity. Cost model, following the
// validate-then-charge discipline (DESIGN.md §14): each signature check
// charges only after it passes, so a forged certificate costs the
// verifier nothing on the meter; a warm hit charges exactly
// core.CostQuoteCacheLookup.
func (v *Verifier) Admit(m *core.Meter, raw []byte, peer string) (attest.Identity, error) {
	sh := v.shardOf(raw)
	ep := v.epoch.Load()

	sh.mu.Lock()
	e, hit := sh.m[string(raw)]
	sh.mu.Unlock()
	if hit && e.epoch == ep {
		// The verdict is current, but the Sybil check still runs: the
		// same cached certificate presented under a second name is the
		// re-registration attack, not a cache hit.
		if err := v.bindInstance(e.inst, peer); err != nil {
			return attest.Identity{}, v.reject("%v", err)
		}
		m.ChargeNormal(core.CostQuoteCacheLookup)
		v.warm.Add(1)
		v.observe(KindVerifyWarm)
		return e.id, nil
	}

	cert, err := Unmarshal(raw)
	if err != nil {
		return attest.Identity{}, v.reject("%v", err)
	}
	// The quote must bind this exact key and instance ID — otherwise a
	// valid quote lifted from another certificate would transplant.
	if cert.Quote.Data != BindingData(cert.Pub, cert.InstanceID) {
		return attest.Identity{}, v.reject("quote does not bind the certificate key")
	}
	// Proof of possession: the presenter holds the channel private key.
	pop := popBody(cert.Pub, cert.InstanceID)
	if !ed25519.Verify(cert.Pub, pop, cert.PopSig) {
		return attest.Identity{}, v.reject("bad proof-of-possession signature")
	}
	m.ChargeNormal(core.CostSigVerify + uint64(len(pop))*core.CostSHA256PerByte)
	// Quote signature under the embedded platform attestation key.
	if len(cert.Quote.PlatformPub) != ed25519.PublicKeySize {
		return attest.Identity{}, v.reject("bad platform key length")
	}
	body := cert.Quote.SignedBody()
	if !ed25519.Verify(ed25519.PublicKey(cert.Quote.PlatformPub), body, cert.Quote.Sig) {
		return attest.Identity{}, v.reject("bad quote signature")
	}
	m.ChargeNormal(core.CostSigVerify + uint64(len(body))*core.CostSHA256PerByte)

	if perr := v.pol.Check(&cert.Quote); perr != nil {
		return attest.Identity{}, v.rejectErr(perr)
	}
	if err := v.bindInstance(cert.InstanceID, peer); err != nil {
		return attest.Identity{}, v.reject("%v", err)
	}

	sh.mu.Lock()
	sh.m[string(raw)] = entry{epoch: ep, id: cert.Quote.Identity, inst: cert.InstanceID}
	sh.mu.Unlock()
	v.cold.Add(1)
	v.observe(KindVerifyCold)
	return cert.Quote.Identity, nil
}
