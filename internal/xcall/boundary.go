package xcall

import (
	"sync"

	"sgxnet/internal/core"
)

// Boundary is one enclave's crossing policy, the single place a
// deployment chooses between synchronous and switchless crossings.
// Adopters enter the enclave through Call and bind the enclave's host
// through Host, and never ask which kind of boundary they hold.
//
// Built from a nil *Config the boundary is synchronous: Call is
// Enclave.Call, Host returns its argument (so Env.OCall pays each
// crossing), Batch is 0, and Flush and Stats are empty. Otherwise Call
// rides a CallRing, every host Host wraps rides its own OCallRing, and
// all of them are sized by the config.
type Boundary struct {
	enc  *core.Enclave
	call *CallRing // nil when synchronous

	mu    sync.Mutex
	rings []*ring // call ring first, then each OCALL ring in Host order
}

// Attach builds enc's boundary from cfg; nil means synchronous.
func Attach(enc *core.Enclave, cfg *Config) *Boundary {
	b := &Boundary{enc: enc}
	if cfg != nil {
		b.call = NewCallRing(enc, *cfg)
		b.rings = []*ring{&b.call.ring}
	}
	return b
}

// Call invokes the enclave entry point fn.
func (b *Boundary) Call(fn string, arg []byte) ([]byte, error) {
	if b.call == nil {
		return b.enc.Call(fn, arg)
	}
	return b.call.Call(fn, arg)
}

// Host returns what to bind (or mount) in front of the untrusted host
// h: h itself on a synchronous boundary, a new OCallRing over h on a
// switchless one.
func (b *Boundary) Host(h core.Host) core.Host {
	if b.call == nil {
		return h
	}
	r := newOCallRing(b.enc, h, b.call.cfg)
	b.mu.Lock()
	b.rings = append(b.rings, &r.ring)
	b.mu.Unlock()
	return r
}

// Batch is the ring drain target, which a batched I/O shim's send
// window matches: 0 on a synchronous boundary, so
// IOShim.SetBatched(b.Batch()) leaves the shim unbatched.
func (b *Boundary) Batch() int {
	if b.call == nil {
		return 0
	}
	return b.call.cfg.Batch
}

// Flush drains every ring at a phase boundary (see CallRing.Flush). Its
// error result is always nil.
func (b *Boundary) Flush() error {
	b.mu.Lock()
	rings := b.rings
	b.mu.Unlock()
	for _, r := range rings {
		chargeFlush(r, b.enc)
	}
	return nil
}

// Stats sums the rings' tallies.
func (b *Boundary) Stats() Stats {
	b.mu.Lock()
	rings := b.rings
	b.mu.Unlock()
	var st Stats
	for _, r := range rings {
		st = st.Add(r.snapshot())
	}
	return st
}
