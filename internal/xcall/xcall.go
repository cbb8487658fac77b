// Package xcall implements switchless enclave calls: bounded
// shared-memory request rings between untrusted host threads and
// in-enclave worker loops, replacing the per-call EENTER/EEXIT pair
// with one amortized crossing per drained batch (HotCalls-style).
//
// A ring models its shared memory by counting: each switchless call
// occupies one slot, and a drain hands the worker the occupied slots.
// The handlers run on the caller's own arguments, so no slot holds a
// copy of them.
//
// Determinism: ring occupancy evolves on the call clock — every
// submission advances the ring's state machine by exactly one step
// under a mutex, with no wall clock and no real goroutine races in the
// cost model (like netsim's fault schedules, which evolve on the
// message clock). The same call sequence always produces the same
// drains, fallbacks, and meter charges.
package xcall

import (
	"sync"

	"sgxnet/internal/core"
)

// Slot bounds. A ring holds at most MaxBatch descriptors (rings clamp
// their configured capacity to this), a function name fits one length
// byte, and an argument is capped well above any cell/record/report
// this repo moves — a call that does not fit a slot falls back to a
// synchronous crossing instead (see ring.submit).
const (
	MaxBatch    = 1024
	MaxFnLen    = 255
	MaxArgBytes = 1 << 20
)

// fits reports whether a call fits one ring slot.
func fits(fn string, arg []byte) bool {
	return len(fn) <= MaxFnLen && len(arg) <= MaxArgBytes
}

// Probe kinds reported through the platform's core.Probe (and so
// through obs.Registry when one is installed). Counter identities a
// metrics consumer can check: xcall.fallback = xcall.fallback.full +
// xcall.fallback.parked, and xcall.wake = xcall.fallback.parked.
const (
	// KindCall is one switchless submission (descriptor enqueued).
	KindCall = "xcall.call"
	// KindDrain counts descriptors picked up by the worker, reported
	// per drained batch.
	KindDrain = "xcall.drain"
	// KindFallback is one synchronous-crossing fallback.
	KindFallback = "xcall.fallback"
	// KindFallbackFull is a fallback because the ring was full (or the
	// descriptor did not fit a slot).
	KindFallbackFull = "xcall.fallback.full"
	// KindFallbackParked is a fallback because the worker had parked;
	// the synchronous call doubles as the doorbell that wakes it.
	KindFallbackParked = "xcall.fallback.parked"
	// KindPark is the worker parking after its spin budget expired (or
	// on Flush).
	KindPark = "xcall.park"
	// KindWake is the worker resuming on a doorbell fallback.
	KindWake = "xcall.wake"
)

// Config sizes one ring. The zero value selects the defaults below.
type Config struct {
	// Capacity is the number of descriptor slots. A full ring falls
	// back to the synchronous crossing. Default 64, clamped to
	// MaxBatch. Setting Capacity < Batch is legal: the ring then fills
	// before a batch assembles and submissions fall back (exercised by
	// the ring-full tests).
	Capacity int

	// Batch is the drain target: the worker picks up the whole ring as
	// soon as occupancy reaches Batch, paying one amortized crossing
	// for the lot. Default 16.
	Batch int

	// Series, when non-nil, samples the ring's behavior into a windowed
	// time-series set: occupancy after each enqueue, drain batch sizes,
	// spin polls versus parks. Because it rides the Config, every ring a
	// deployment derives from this config (tor ORs, the record engine,
	// the quoting enclave) reports through the same probe with no extra
	// plumbing. Zero-cost when nil.
	Series *SeriesConfig

	// SpinBudget is how many polls the in-enclave worker spends
	// assembling one batch before giving up: each submission while the
	// worker is hot costs it one poll, and when the count since the
	// last drain exceeds SpinBudget the worker drains what it has and
	// parks. The next submission finds it parked and falls back to a
	// synchronous crossing, which doubles as the doorbell. A generous
	// budget keeps the worker hot (fewer fallbacks, more spin
	// instructions); a tight one converts the tail of every burst into
	// one fallback. Default 4×Batch.
	SpinBudget int
}

// SeriesConfig wires a ring to the windowed-metrics layer. The ring
// itself has no virtual clock — submissions happen "when the caller
// calls" — so the caller supplies one: the load engine's request clock,
// or a closure reading the enclave meter's accumulated cycles. Probe is
// structurally core.SampleProbe (internal/obs/series.Sampler satisfies
// it); Clock may be nil, which pins every sample to window zero.
type SeriesConfig struct {
	Probe core.SampleProbe
	Clock func() uint64
}

// now reads the wired clock (0 without one).
func (sc *SeriesConfig) now() uint64 {
	if sc.Clock == nil {
		return 0
	}
	return sc.Clock()
}

// WithDefaults resolves zero fields to the documented defaults and
// clamps Capacity to MaxBatch.
func (c Config) WithDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = 64
	}
	if c.Capacity > MaxBatch {
		c.Capacity = MaxBatch
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.SpinBudget == 0 {
		c.SpinBudget = 4 * c.Batch
	}
	return c
}

// Stats is a ring's lifetime tally. All counters evolve on the call
// clock, so a deterministic call sequence yields deterministic stats.
type Stats struct {
	Calls           uint64 // switchless submissions (descriptor enqueued)
	Fallbacks       uint64 // synchronous-crossing fallbacks, total
	FullFallbacks   uint64 // … because the ring was full / slot too small
	ParkedFallbacks uint64 // … because the worker had parked (doorbell)
	Drains          uint64 // worker batch pickups (one amortized crossing each)
	Drained         uint64 // descriptors drained across all pickups
	Parks           uint64 // worker parks (spin budget expiry or Flush)
	Wakes           uint64 // worker wakes (doorbell fallbacks)
	MaxOccupancy    int    // high-water descriptor count
}

// Add returns the elementwise sum (max for MaxOccupancy), for summing
// stats across an application's rings.
func (s Stats) Add(o Stats) Stats {
	s.Calls += o.Calls
	s.Fallbacks += o.Fallbacks
	s.FullFallbacks += o.FullFallbacks
	s.ParkedFallbacks += o.ParkedFallbacks
	s.Drains += o.Drains
	s.Drained += o.Drained
	s.Parks += o.Parks
	s.Wakes += o.Wakes
	if o.MaxOccupancy > s.MaxOccupancy {
		s.MaxOccupancy = o.MaxOccupancy
	}
	return s
}

// verdict is the accounting decision for one submission.
type verdict uint8

const (
	// verdictEnqueue: switchless — the descriptor was enqueued.
	verdictEnqueue verdict = iota
	// verdictFallbackFull: ring full (or oversized descriptor) — the
	// caller performs the synchronous crossing.
	verdictFallbackFull
	// verdictFallbackParked: worker parked — the caller's synchronous
	// crossing doubles as the doorbell; the worker is hot again after.
	verdictFallbackParked
)

// ring is the shared state machine of both ring directions. The mutex
// covers accounting only — handler execution never runs under it (a
// drain on one ring may cascade into submissions on another).
//
// The worker starts parked (it does not exist until the first call
// launches it), so a ring's first submission is always a doorbell
// fallback: warmup is paid, never hidden.
type ring struct {
	cfg Config

	mu     sync.Mutex
	occ    int // descriptors queued since the last drain
	polls  int // worker polls since its last drain
	parked bool
	stats  Stats
}

func newRing(cfg Config) ring {
	return ring{
		cfg:    cfg.WithDefaults(),
		parked: true, // worker not launched yet; first call is the doorbell
	}
}

// submit advances the ring by one call of fn with arg and returns the
// accounting decision plus how many descriptors the worker drained as
// a consequence (0 if none) and whether it parked afterwards.
// Invariant: parked ⇒ occ == 0 (the worker drains before parking).
func (r *ring) submit(fn string, arg []byte) (v verdict, drained int, parked bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc := r.cfg.Series
	if r.parked {
		r.parked = false
		r.polls = 0
		r.stats.Fallbacks++
		r.stats.ParkedFallbacks++
		r.stats.Wakes++
		if sc != nil {
			now := sc.now()
			sc.Probe.CountAt("xcall.fallbacks", now, 1)
			sc.Probe.CountAt("xcall.wakes", now, 1)
		}
		return verdictFallbackParked, 0, false
	}
	if r.occ >= r.cfg.Capacity || !fits(fn, arg) {
		r.stats.Fallbacks++
		r.stats.FullFallbacks++
		if sc != nil {
			sc.Probe.CountAt("xcall.fallbacks", sc.now(), 1)
		}
		return verdictFallbackFull, 0, false
	}
	r.occ++
	r.polls++
	r.stats.Calls++
	if r.occ > r.stats.MaxOccupancy {
		r.stats.MaxOccupancy = r.occ
	}
	if sc != nil {
		now := sc.now()
		sc.Probe.CountAt("xcall.calls", now, 1)
		sc.Probe.GaugeAt("xcall.occ", now, uint64(r.occ))
	}
	if r.occ >= r.cfg.Batch {
		return verdictEnqueue, r.drainLocked(), false
	}
	if r.polls > r.cfg.SpinBudget {
		// Spin budget expired: the worker drains the stragglers and
		// parks; the next submission pays the doorbell.
		drained = r.drainLocked()
		r.parked = true
		r.stats.Parks++
		if sc != nil {
			sc.Probe.CountAt("xcall.parks", sc.now(), 1)
		}
		return verdictEnqueue, drained, true
	}
	return verdictEnqueue, 0, false
}

// drainLocked hands the queued descriptors to the worker and resets the
// ring. Returns the descriptor count.
func (r *ring) drainLocked() int {
	n := r.occ
	r.occ = 0
	r.polls = 0
	r.stats.Drains++
	r.stats.Drained += uint64(n)
	if sc := r.cfg.Series; sc != nil {
		now := sc.now()
		sc.Probe.CountAt("xcall.drains", now, 1)
		sc.Probe.CountAt("xcall.drained", now, uint64(n))
	}
	return n
}

// flush drains any pending descriptors and parks the worker (end of a
// burst: Flush at phase boundaries, or teardown). An empty flush only
// parks — it charges nothing.
func (r *ring) flush() (drained int, wasHot bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.occ > 0 {
		drained = r.drainLocked()
	}
	if !r.parked {
		r.parked = true
		r.stats.Parks++
		wasHot = true
		if sc := r.cfg.Series; sc != nil {
			sc.Probe.CountAt("xcall.parks", sc.now(), 1)
		}
	}
	return drained, wasHot
}

// snapshot returns the stats under the lock.
func (r *ring) snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// observe reports to a possibly-nil probe.
func observe(p core.Probe, kind string, n uint64) {
	if p != nil && n > 0 {
		p.Observe(kind, n)
	}
}

// chargeSwitchless accounts one enqueued descriptor and, if the
// submission triggered a drain, the drain; all on the meter the
// synchronous path would have charged.
func chargeSwitchless(m *core.Meter, p core.Probe, drained int, parked bool) {
	m.ChargeNormal(core.CostRingEnqueue + core.CostRingSpinPoll)
	observe(p, KindCall, 1)
	chargeDrain(m, p, drained)
	if parked {
		observe(p, KindPark, 1)
	}
}

// chargeDrain accounts a drain of n descriptors (none: no drain): the
// batch's one amortized crossing plus a dequeue per descriptor.
func chargeDrain(m *core.Meter, p core.Probe, n int) {
	if n == 0 {
		return
	}
	m.ChargeSGX(core.SGXInstRingDrain)
	m.ChargeNormal(uint64(n) * core.CostRingDequeue)
	observe(p, KindDrain, uint64(n))
}

// chargeFallback reports fallback probes (the synchronous crossing
// itself is charged by whoever performs it).
func chargeFallback(p core.Probe, v verdict) {
	observe(p, KindFallback, 1)
	if v == verdictFallbackFull {
		observe(p, KindFallbackFull, 1)
	} else {
		observe(p, KindFallbackParked, 1)
		observe(p, KindWake, 1)
	}
}

// CallRing is the host→enclave direction: host threads enqueue ECALL
// descriptors, the in-enclave worker drains them. All accounting lands
// on the enclave meter, matching the synchronous Enclave.Call path it
// replaces.
type CallRing struct {
	ring
	enc *core.Enclave
}

// NewCallRing builds a call ring in front of enc.
func NewCallRing(enc *core.Enclave, cfg Config) *CallRing {
	return &CallRing{ring: newRing(cfg), enc: enc}
}

// Call submits one call. Switchless submissions charge ring ops (plus
// the amortized crossing on drains); fallbacks go through the ordinary
// Enclave.Call with its full EENTER/EEXIT pair.
//
// Results flow causally: the handler runs before Call returns in every
// case (only the *accounting* follows the ring protocol), so request/
// response code needs no restructuring to adopt the ring.
func (r *CallRing) Call(fn string, arg []byte) ([]byte, error) {
	v, drained, parked := r.submit(fn, arg)
	p := r.enc.Platform().Probe()
	if v != verdictEnqueue {
		// Validate-then-charge: the synchronous call runs first, and the
		// fallback probes fire only if it succeeded — a rejected call must
		// not leave fallback observations behind.
		out, err := r.enc.Call(fn, arg)
		if err != nil {
			return nil, err
		}
		chargeFallback(p, v)
		return out, nil
	}
	chargeSwitchless(r.enc.Meter(), p, drained, parked)
	return r.enc.SwitchlessCall(fn, arg)
}

// Flush drains pending descriptors and parks the worker. Call it at
// phase boundaries so drained-but-unaccounted work cannot leak across
// a measurement snapshot. An empty flush is free. A flush cannot fail;
// the error result is always nil.
func (r *CallRing) Flush() error {
	chargeFlush(&r.ring, r.enc)
	return nil
}

// Stats returns the ring's tally so far.
func (r *CallRing) Stats() Stats { return r.snapshot() }

// OCallRing is the enclave→host direction: in-enclave code posts host
// requests to the ring instead of paying EEXIT/ERESUME per OCALL. It
// implements core.Host and reports every service switchless, so bound
// as an enclave's host (or mounted under a netsim.MultiHost prefix) it
// takes over from Env.OCall's own crossing charge. Accounting lands on
// the enclave meter, like the synchronous OCALL. Boundary.Host makes
// one, and the Boundary flushes it and reports its stats.
type OCallRing struct {
	ring
	enc  *core.Enclave
	host core.Host
}

// newOCallRing builds an OCALL ring for enc in front of the untrusted
// host h.
func newOCallRing(enc *core.Enclave, h core.Host, cfg Config) *OCallRing {
	return &OCallRing{ring: newRing(cfg), enc: enc, host: h}
}

// Switchless implements the optional core.Host method Env.OCall asks:
// every request the ring serves is accounted by the ring.
func (r *OCallRing) Switchless(string) bool { return true }

// OCall submits one host request. Fallbacks pay the synchronous
// crossing here (Enclave.ChargeOCall, which Env.OCall skipped);
// switchless submissions pay ring ops and amortized drains. The host
// service always runs before OCall returns — responses stay causal.
func (r *OCallRing) OCall(service string, arg []byte) ([]byte, error) {
	v, drained, parked := r.submit(service, arg)
	p := r.enc.Platform().Probe()
	if v != verdictEnqueue {
		// Validate-then-charge: the host service runs first; the
		// synchronous crossing and the fallback probes are charged only
		// when it succeeded, so a rejected request costs the enclave
		// nothing and fires no observations.
		out, err := r.host.OCall(service, arg)
		if err != nil {
			return nil, err
		}
		r.enc.ChargeOCall()
		chargeFallback(p, v)
		return out, nil
	}
	chargeSwitchless(r.enc.Meter(), p, drained, parked)
	return r.host.OCall(service, arg)
}

// chargeFlush performs a flush and accounts it on the enclave meter: a
// non-empty final batch pays its amortized crossing and dequeues; an
// empty flush only parks (free).
func chargeFlush(r *ring, enc *core.Enclave) {
	drained, wasHot := r.flush()
	p := enc.Platform().Probe()
	chargeDrain(enc.Meter(), p, drained)
	if wasHot {
		observe(p, KindPark, 1)
	}
}
