// Package des is the discrete-event simulation kernel under the scale
// sweep: a binary event heap ordered by virtual timestamp and a virtual
// cycle clock, run to completion on one goroutine (the deterministic
// core of eval.ScaleSweep).
//
// Virtual time is counted in modeled CPU cycles — the same unit as
// core.Meter tallies and the obs.Trace span clock (core.CyclesOf), so a
// handler that charges a meter can schedule its completion event exactly
// one tally delta later and the trace, the meters, and the event heap
// all agree on when things happened.
//
// Determinism: events fire in (timestamp, sequence) order. Sequence
// numbers are assigned at schedule time, so two events at the same
// virtual instant fire in the order they were scheduled — FIFO among
// equal timestamps. A Run over a fixed schedule is therefore a pure
// function of its inputs: same spec, same event order, same stats, at
// any -workers (parallelism lives across kernels, never inside one).
package des

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
// 65,536 distinct handlers — scheduling one more panics.
type Handler interface {
	OnEvent(now uint64, arg uint64)
}

// An event's key packs its schedule sequence above its handler slot:
// key = seq<<slotBits | slot. Sequences are unique, so ordering events
// by (at, key) is ordering them by (at, seq), and a kernel may schedule
// 2^48 events before the sequence wraps.
const (
	slotBits = 16
	slotMask = 1<<slotBits - 1
)

// event is one heap entry: 24 bytes and no pointers, so the heap array
// is never scanned by the garbage collector and a sift moves three
// plain words. Ordering is (at, key), a total order that never depends
// on heap internals.
type event struct {
	at  uint64
	key uint64 // seq<<slotBits | handler slot
	arg uint64 // the handler's arg
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
// use New. A kernel belongs to the goroutine that runs it: it takes no
// lock, so every method call, and every handler, runs on that one
// goroutine. A handler may schedule freely; another goroutine may not.
type Kernel struct {
	heap []event
	seq  uint64
	now  uint64

	// handlers maps a slot to its interned handler, and slots the
	// reverse.
	handlers []Handler
	slots    map[Handler]uint64

	processed uint64
	peakLive  int

	series Sampler // windowed-metrics hook; nil = off
}

// New creates an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{slots: make(map[Handler]uint64)}
}

// SetSeries attaches (or, with nil, detaches) the windowed-metrics
// sampler. Every event pop then records one "des.events" count and a
// "des.backlog" gauge (heap length after the pop) at the event's
// virtual timestamp — the events-per-window and backlog-growth series
// the scale sweep exports. Attach before scheduling; sampling is a
// per-pop branch when detached.
func (k *Kernel) SetSeries(s Sampler) { k.series = s }

// Now returns the virtual clock: the timestamp of the most recently
// fired event (events run "at" their timestamp, so inside a handler Now
// equals the handler's own time).
func (k *Kernel) Now() uint64 { return k.now }

// At schedules h.OnEvent(t, arg). A timestamp in the past clamps to the
// current clock — the kernel never runs time backwards.
func (k *Kernel) At(t uint64, h Handler, arg uint64) {
	slot, ok := k.slots[h]
	if !ok {
		if len(k.handlers) > slotMask {
			panic("des: more than 65536 distinct handlers on one kernel")
		}
		slot = uint64(len(k.handlers))
		k.slots[h] = slot
		k.handlers = append(k.handlers, h)
	}
	k.push(event{at: max(t, k.now), key: k.seq<<slotBits | slot, arg: arg})
	k.seq++
}

// Len reports the number of pending events.
func (k *Kernel) Len() int { return len(k.heap) }

// Stats snapshots the kernel counters.
func (k *Kernel) Stats() Stats {
	return Stats{Processed: k.processed, Scheduled: k.seq, PeakLive: k.peakLive, Now: k.now}
}

// Step pops and executes the earliest event, advancing the clock to its
// timestamp. It reports false when the heap is empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	e := k.pop()
	k.now = e.at
	k.processed++
	if k.series != nil {
		k.series.CountAt("des.events", e.at, 1)
		k.series.GaugeAt("des.backlog", e.at, uint64(len(k.heap)))
	}
	k.handlers[e.key&slotMask].OnEvent(e.at, e.arg)
	return true
}

// Run executes events in (timestamp, seq) order until the heap drains,
// then returns the final stats. Handlers may schedule new events, and a
// run over a fixed initial schedule is fully deterministic.
func (k *Kernel) Run() Stats {
	for k.Step() {
	}
	return k.Stats()
}

// push inserts an event, sifting a hole up from the end so each level
// costs one move rather than a swap.
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
// leaves at the root down to where the last event belongs. The caller
// guarantees the heap is non-empty.
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
