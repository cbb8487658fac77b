// Package des is the discrete-event simulation kernel under netsim and
// the scale sweeps: a binary event heap ordered by virtual timestamp,
// a virtual cycle clock, and two execution modes — single-threaded
// run-to-completion (the deterministic core of eval.ScaleSweep) and a
// background drainer (the compat shim that lets the goroutine-driven
// netsim rigs keep their blocking channel API while fault delays ride
// virtual time instead of wall-clock sleeps).
//
// Virtual time is counted in modeled CPU cycles — the same unit as
// core.Meter tallies and the obs.Trace span clock (core.CyclesOf), so a
// handler that charges a meter can schedule its completion event exactly
// one tally delta later and the trace, the meters, and the event heap
// all agree on when things happened. For wall-clock-denominated inputs
// (the fault engine's latency/jitter durations) the conversion is fixed
// at one cycle per nanosecond: a modeled 1 GHz part, coarse but uniform.
//
// Determinism: events fire in (timestamp, sequence) order. Sequence
// numbers are assigned at schedule time, so two events at the same
// virtual instant fire in the order they were scheduled — FIFO among
// equal timestamps. A single-threaded Run over a fixed schedule is
// therefore a pure function of its inputs: same spec, same event order,
// same stats, at any -workers (parallelism lives across kernels, never
// inside one).
package des

import (
	"math"
	"sync"
	"time"
)

// CyclesPerSecond fixes the wall-clock↔virtual-clock exchange rate used
// when durations (not cycle counts) enter the kernel: 1 GHz, i.e. one
// cycle per nanosecond.
const CyclesPerSecond = 1_000_000_000

// DurationCycles converts a wall-clock duration to virtual cycles at
// the fixed CyclesPerSecond rate. Negative durations clamp to zero.
func DurationCycles(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d) // time.Duration is nanoseconds; 1 cycle = 1 ns
}

// Sampler is the windowed-metrics hook: the kernel samples its event
// throughput and backlog at every pop when one is attached. The
// interface is structural (internal/obs/series.Sampler satisfies it)
// so des keeps its zero-dependency footprint.
type Sampler interface {
	// CountAt adds n occurrences of the named counter at virtual time t.
	CountAt(name string, t, n uint64)
	// GaugeAt records level v of the named gauge at virtual time t.
	GaugeAt(name string, t, v uint64)
}

// Handler consumes one event. Implementations dispatch on arg — an
// opaque word the scheduler passes through, typically a packed
// (operation index, stage) pair — so a million-event simulation needs
// one handler value and zero per-event allocations.
//
// The kernel interns each distinct handler in a table of its own and
// stores only the handler's slot in an event, so the event heap holds
// no pointers. That sets the contract: a handler must be comparable
// (a pointer, or a value type whose fields all compare; two equal
// values are the same handler), the kernel keeps every handler it has
// been given for the kernel's lifetime, and one kernel holds at most
// 65,535 distinct handlers — scheduling one more panics.
type Handler interface {
	OnEvent(now uint64, arg uint64)
}

// An event's key packs its schedule sequence above its handler slot:
// key = seq<<slotBits | slot. Sequences are unique, so ordering events
// by (at, key) is ordering them by (at, seq), and a kernel may schedule
// 2^48 events before the sequence wraps.
const (
	slotBits = 16
	// funcSlot marks a closure event: its arg indexes the closure
	// table. Every other slot names an interned handler, so a kernel
	// holds at most funcSlot (65,535) of them.
	funcSlot = 1<<slotBits - 1
)

// event is one heap entry: 24 bytes and no pointers, so the heap array
// is never scanned by the garbage collector and a sift moves three
// plain words. Ordering is (at, key), a total order that never depends
// on heap internals.
type event struct {
	at  uint64
	key uint64 // seq<<slotBits | handler slot
	arg uint64 // the handler's arg, or the closure's table index
}

// before is the heap ordering predicate.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.key < o.key
}

// Stats is a kernel snapshot.
type Stats struct {
	Processed uint64 // events executed
	Scheduled uint64 // events ever pushed
	PeakLive  int    // high-water mark of the event heap
	Now       uint64 // virtual clock, cycles
}

// Kernel is one discrete-event scheduler. The zero value is not ready;
// use New. All methods are safe for concurrent use — the lock is
// uncontended (and cheap) in single-threaded Run mode, and required in
// Background mode where network goroutines schedule against the
// draining goroutine.
type Kernel struct {
	mu   sync.Mutex
	cond *sync.Cond
	heap []event
	seq  uint64
	now  uint64

	// handlers maps a slot to its interned handler, and slots the
	// reverse.
	handlers []Handler
	slots    map[Handler]uint64

	// funcs holds each AtFunc/AfterFunc closure from its schedule until
	// it fires; free lists the emptied entries for reuse.
	funcs []func(now uint64)
	free  []uint64

	processed uint64
	peakLive  int

	bg      bool // background drainer active
	stopped bool // drainer told to exit

	series Sampler // windowed-metrics hook; nil = off
}

// New creates an empty kernel with the clock at zero.
func New() *Kernel {
	k := &Kernel{slots: make(map[Handler]uint64)}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// SetSeries attaches (or, with nil, detaches) the windowed-metrics
// sampler. Every event pop then records one "des.events" count and a
// "des.backlog" gauge (heap length after the pop) at the event's
// virtual timestamp — the events-per-window and backlog-growth series
// the scale sweep exports. Attach before scheduling; sampling is a
// per-pop branch when detached.
func (k *Kernel) SetSeries(s Sampler) {
	k.mu.Lock()
	k.series = s
	k.mu.Unlock()
}

// Now returns the virtual clock: the timestamp of the most recently
// fired event (events run "at" their timestamp, so inside a handler Now
// equals the handler's own time).
func (k *Kernel) Now() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// At schedules h.OnEvent(t, arg). A timestamp in the past clamps to the
// current clock — the kernel never runs time backwards.
func (k *Kernel) At(t uint64, h Handler, arg uint64) {
	k.mu.Lock()
	k.schedule(t, k.slot(h), arg)
	k.mu.Unlock()
}

// After schedules h.OnEvent at Now()+d cycles, saturating at the
// clock's maximum rather than wrapping into the past.
func (k *Kernel) After(d uint64, h Handler, arg uint64) {
	k.mu.Lock()
	k.schedule(k.later(d), k.slot(h), arg)
	k.mu.Unlock()
}

// AtFunc schedules a closure, which the kernel holds only until it
// fires. Prefer At with a shared Handler on hot paths.
func (k *Kernel) AtFunc(t uint64, fn func(now uint64)) {
	k.mu.Lock()
	k.schedule(t, funcSlot, k.park(fn))
	k.mu.Unlock()
}

// AfterFunc schedules a closure at Now()+d cycles, saturating as After
// does.
func (k *Kernel) AfterFunc(d uint64, fn func(now uint64)) {
	k.mu.Lock()
	k.schedule(k.later(d), funcSlot, k.park(fn))
	k.mu.Unlock()
}

// later is the clock plus d, saturated at math.MaxUint64. Caller holds
// k.mu.
func (k *Kernel) later(d uint64) uint64 {
	if d > math.MaxUint64-k.now {
		return math.MaxUint64
	}
	return k.now + d
}

// schedule pushes an event for slot at t, clamped to the clock. Caller
// holds k.mu.
func (k *Kernel) schedule(t, slot, arg uint64) {
	if t < k.now {
		t = k.now
	}
	k.push(event{at: t, key: k.seq<<slotBits | slot, arg: arg})
	k.seq++
	if k.bg {
		k.cond.Signal()
	}
}

// slot interns h and returns its handler slot. Caller holds k.mu; a
// kernel that would exceed its handler table releases k.mu and panics.
func (k *Kernel) slot(h Handler) uint64 {
	if s, ok := k.slots[h]; ok {
		return s
	}
	if len(k.handlers) == funcSlot {
		k.mu.Unlock()
		panic("des: more than 65535 distinct handlers on one kernel")
	}
	s := uint64(len(k.handlers))
	k.slots[h] = s
	k.handlers = append(k.handlers, h)
	return s
}

// park stores fn in the closure table and returns its index. Caller
// holds k.mu.
func (k *Kernel) park(fn func(now uint64)) uint64 {
	if n := len(k.free); n > 0 {
		i := k.free[n-1]
		k.free = k.free[:n-1]
		k.funcs[i] = fn
		return i
	}
	k.funcs = append(k.funcs, fn)
	return uint64(len(k.funcs) - 1)
}

// Len reports the number of pending events.
func (k *Kernel) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.heap)
}

// Stats snapshots the kernel counters.
func (k *Kernel) Stats() Stats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return Stats{Processed: k.processed, Scheduled: k.seq, PeakLive: k.peakLive, Now: k.now}
}

// firing is a popped event with what runs it: a handler or a closure.
type firing struct {
	at, arg uint64
	h       Handler
	fn      func(now uint64)
}

// run executes the event. Callers run it without k.mu, so it may
// schedule freely.
func (f *firing) run() {
	if f.fn != nil {
		f.fn(f.at)
		return
	}
	f.h.OnEvent(f.at, f.arg)
}

// take pops the earliest event, advances the clock to its timestamp
// and looks up what runs it, releasing a closure's table entry. Caller
// holds k.mu and guarantees the heap is non-empty.
func (k *Kernel) take() firing {
	e := k.pop()
	k.now = e.at
	k.processed++
	if k.series != nil {
		k.series.CountAt("des.events", e.at, 1)
		k.series.GaugeAt("des.backlog", e.at, uint64(len(k.heap)))
	}
	f := firing{at: e.at, arg: e.arg}
	if slot := e.key & funcSlot; slot == funcSlot {
		f.fn = k.funcs[e.arg]
		k.funcs[e.arg] = nil
		k.free = append(k.free, e.arg)
	} else {
		f.h = k.handlers[slot]
	}
	return f
}

// Step pops and executes the earliest event, advancing the clock to its
// timestamp. It reports false when the heap is empty. The handler runs
// outside the kernel lock, so it may schedule freely.
func (k *Kernel) Step() bool {
	k.mu.Lock()
	if len(k.heap) == 0 {
		k.mu.Unlock()
		return false
	}
	f := k.take()
	k.mu.Unlock()
	f.run()
	return true
}

// Run executes events in (timestamp, seq) order until the heap drains,
// then returns the final stats. Handlers may schedule new events; Run
// is single-threaded, so a run over a fixed initial schedule is fully
// deterministic.
func (k *Kernel) Run() Stats {
	for k.Step() {
	}
	return k.Stats()
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t (even if no event reached it). Used by tests that cut a simulation
// at a horizon.
func (k *Kernel) RunUntil(t uint64) Stats {
	for {
		k.mu.Lock()
		if len(k.heap) == 0 || k.heap[0].at > t {
			if k.now < t {
				k.now = t
			}
			k.mu.Unlock()
			return k.Stats()
		}
		f := k.take()
		k.mu.Unlock()
		f.run()
	}
}

// Background starts a drainer goroutine that executes events as soon as
// they are scheduled, in (timestamp, seq) order, with the virtual clock
// leaping to each event's timestamp — no wall-clock sleeping, ever.
// This is the compat mode for the channel-based netsim surface: protocol
// goroutines block on their connections exactly as before, while the
// fault engine's delayed deliveries ride virtual time. The returned stop
// function drains nothing further, waits for the in-flight handler to
// finish, and is idempotent.
func (k *Kernel) Background() (stop func()) {
	k.mu.Lock()
	if k.bg {
		k.mu.Unlock()
		panic("des: Background called twice")
	}
	k.bg = true
	k.stopped = false
	done := make(chan struct{})
	k.mu.Unlock()
	go func() {
		defer close(done)
		for {
			k.mu.Lock()
			for len(k.heap) == 0 && !k.stopped {
				k.cond.Wait()
			}
			if k.stopped {
				k.mu.Unlock()
				return
			}
			f := k.take()
			k.mu.Unlock()
			f.run()
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			k.mu.Lock()
			k.stopped = true
			k.bg = false
			k.cond.Broadcast()
			k.mu.Unlock()
			<-done
		})
	}
}

// push inserts an event, sifting a hole up from the end so each level
// costs one move rather than a swap. Caller holds k.mu.
func (k *Kernel) push(e event) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.heap = h
	if len(h) > k.peakLive {
		k.peakLive = len(h)
	}
}

// pop removes and returns the earliest event, sifting the hole it
// leaves at the root down to where the last event belongs. Caller
// holds k.mu and guarantees the heap is non-empty.
func (k *Kernel) pop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}
