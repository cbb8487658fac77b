package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault-schedule engine: seeded, per-link disturbance layered on the
// per-connection injectors (InjectCorrupt / InjectDrop). The paper's
// threat model gives the network adversary delay, loss, duplication,
// reordering, and denial of service — everything except forging what the
// enclaves authenticate — and the ROADMAP's "heavy traffic" north star
// needs those disturbances to be reproducible, so the engine is
// deterministic per seed:
//
//   - every directed link (from→to) draws its decisions from its own RNG
//     stream, seeded by schedule-seed ⊕ FNV-1a(from→to), so a link's k-th
//     message receives the same verdict regardless of how goroutines
//     interleave traffic on other links;
//   - partitions and host crash/restart events trigger on the global
//     message counter (a virtual clock every Send ticks), not wall time.
//
// Latency and jitter are realized as wall-clock delays on a per-link
// delivery pipeline that preserves FIFO order unless reordering is
// explicitly scheduled, so "slow" and "shuffled" are independent axes.

// LinkFaults is the disturbance profile of one directed link. Empty
// From/To act as wildcards, letting one rule cover the whole network.
type LinkFaults struct {
	From, To string

	// Latency delays every delivery; Jitter adds a uniform extra in
	// [0, Jitter). Delivery order within the link is preserved.
	Latency time.Duration
	Jitter  time.Duration

	// DropProb silently discards a message; DupProb delivers it twice;
	// CorruptProb flips one bit (the receiver's MACs must catch it);
	// ReorderProb holds a message back so the link's next message
	// overtakes it.
	DropProb    float64
	DupProb     float64
	CorruptProb float64
	ReorderProb float64
}

// HostCrash schedules a crash (and optional restart) on the virtual
// clock: when the network's AtMessage-th message is sent, the host goes
// down — listeners close, its connections die, dials to it fail — and
// comes back up RestartAfter messages later (0 = stays down). Restart
// restores reachability only; services must be re-registered by the
// application, exactly as a real reboot forgets its listening sockets.
type HostCrash struct {
	Host         string
	AtMessage    uint64
	RestartAfter uint64
}

// Partition splits the network between host groups A and B for a window
// of the virtual clock: messages crossing the cut in either direction are
// silently dropped while the partition is active.
type Partition struct {
	A, B                      []string
	FromMessage, UntilMessage uint64
}

// FaultStats counts the engine's interventions.
type FaultStats struct {
	Dropped     uint64
	Duplicated  uint64
	Corrupted   uint64
	Reordered   uint64
	Delayed     uint64
	Partitioned uint64
	Crashes     uint64
	Restarts    uint64
}

// FaultObserver receives one notification per engine intervention,
// tagged with the intervention kind ("drop", "dup", "corrupt",
// "reorder", "delay", "partition", "crash", "restart"), the directed
// link (crash/restart carry the host in from, empty to), and the
// virtual-clock tick it fired on. Together with the schedule's String()
// recipe this is enough to replay the run: the recipe rebuilds the
// decision streams, the tick pins each event to the message clock.
//
// The interface is structural so the observability layer can satisfy
// it without netsim importing it; obs.FaultRecorder is the canonical
// implementation. Observers are called from network goroutines and must
// be safe for concurrent use.
type FaultObserver interface {
	FaultEvent(kind, from, to string, tick uint64)
}

type faultObsHolder struct{ o FaultObserver }

// FaultSchedule is a deterministic, seeded disturbance plan for a
// Network. Build one with NewFaultSchedule, add rules, then install it
// with Network.SetFaults before traffic starts.
type FaultSchedule struct {
	seed    int64
	links   []LinkFaults
	parts   []Partition
	crashes []crashState

	tick atomic.Uint64 // virtual clock: one tick per Send

	mu    sync.Mutex
	lstat map[string]*linkState

	dropped     atomic.Uint64
	duplicated  atomic.Uint64
	corrupted   atomic.Uint64
	reordered   atomic.Uint64
	delayed     atomic.Uint64
	partitioned atomic.Uint64
	crashCount  atomic.Uint64
	restarts    atomic.Uint64

	observer atomic.Pointer[faultObsHolder]
}

// SetObserver installs (or, with nil, removes) the intervention
// observer. Install it together with the schedule, before traffic
// starts, so no intervention goes unrecorded.
func (s *FaultSchedule) SetObserver(o FaultObserver) {
	if o == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&faultObsHolder{o: o})
}

func (s *FaultSchedule) notify(kind, from, to string, tick uint64) {
	if h := s.observer.Load(); h != nil {
		h.o.FaultEvent(kind, from, to, tick)
	}
}

type crashState struct {
	HostCrash
	crashed   atomic.Bool
	restarted atomic.Bool
}

// linkState is one directed link's deterministic decision stream and
// delivery pipeline. Delayed deliveries go through a FIFO queue drained
// by a single worker goroutine — concurrent timers would race at
// near-equal release times and turn latency into accidental reordering.
type linkState struct {
	mu      sync.Mutex
	rng     *rand.Rand
	held    *heldMsg // message held back for reordering
	queue   []delayedMsg
	working bool
}

type heldMsg struct {
	payload []byte
	deliver func([]byte)
	timer   *time.Timer // flushes the message if no successor takes it over
}

type delayedMsg struct {
	payload []byte
	deliver func([]byte)
	release time.Time
}

// enqueue appends a delayed delivery and ensures a worker is draining the
// queue. Caller holds ls.mu.
func (ls *linkState) enqueue(m delayedMsg) {
	ls.queue = append(ls.queue, m)
	if !ls.working {
		ls.working = true
		go ls.work()
	}
}

func (ls *linkState) work() {
	for {
		ls.mu.Lock()
		if len(ls.queue) == 0 {
			ls.working = false
			ls.mu.Unlock()
			return
		}
		m := ls.queue[0]
		ls.queue = ls.queue[1:]
		ls.mu.Unlock()
		time.Sleep(time.Until(m.release))
		m.deliver(m.payload)
	}
}

// NewFaultSchedule creates an empty schedule. The same seed and rule set
// reproduce the same per-link decision sequence.
func NewFaultSchedule(seed int64) *FaultSchedule {
	return &FaultSchedule{seed: seed, lstat: make(map[string]*linkState)}
}

// AddLink appends a link rule. The first matching rule wins; add specific
// links before wildcards.
func (s *FaultSchedule) AddLink(f LinkFaults) *FaultSchedule {
	s.links = append(s.links, f)
	return s
}

// AddPartition appends a partition window.
func (s *FaultSchedule) AddPartition(p Partition) *FaultSchedule {
	s.parts = append(s.parts, p)
	return s
}

// AddCrash appends a crash/restart event.
func (s *FaultSchedule) AddCrash(c HostCrash) *FaultSchedule {
	s.crashes = append(s.crashes, crashState{HostCrash: c})
	return s
}

// Seed returns the schedule's seed — log it with any failure so the run
// can be replayed.
func (s *FaultSchedule) Seed() int64 { return s.seed }

// Messages returns the virtual-clock reading (messages seen so far).
func (s *FaultSchedule) Messages() uint64 { return s.tick.Load() }

// Stats snapshots the intervention counters.
func (s *FaultSchedule) Stats() FaultStats {
	return FaultStats{
		Dropped:     s.dropped.Load(),
		Duplicated:  s.duplicated.Load(),
		Corrupted:   s.corrupted.Load(),
		Reordered:   s.reordered.Load(),
		Delayed:     s.delayed.Load(),
		Partitioned: s.partitioned.Load(),
		Crashes:     s.crashCount.Load(),
		Restarts:    s.restarts.Load(),
	}
}

// String describes the schedule — the reproduction recipe.
func (s *FaultSchedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault-schedule seed=%d", s.seed)
	for _, l := range s.links {
		from, to := l.From, l.To
		if from == "" {
			from = "*"
		}
		if to == "" {
			to = "*"
		}
		fmt.Fprintf(&b, " link[%s→%s lat=%v jit=%v drop=%.2f dup=%.2f corrupt=%.2f reorder=%.2f]",
			from, to, l.Latency, l.Jitter, l.DropProb, l.DupProb, l.CorruptProb, l.ReorderProb)
	}
	for _, p := range s.parts {
		fmt.Fprintf(&b, " partition[%v|%v @%d..%d]", p.A, p.B, p.FromMessage, p.UntilMessage)
	}
	for i := range s.crashes {
		c := &s.crashes[i]
		fmt.Fprintf(&b, " crash[%s @%d restart+%d]", c.Host, c.AtMessage, c.RestartAfter)
	}
	return b.String()
}

// rule returns the first matching link rule, if any.
func (s *FaultSchedule) rule(from, to string) (LinkFaults, bool) {
	for _, l := range s.links {
		if (l.From == "" || l.From == from) && (l.To == "" || l.To == to) {
			return l, true
		}
	}
	return LinkFaults{}, false
}

func (s *FaultSchedule) link(from, to string) *linkState {
	key := from + "\x00" + to
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.lstat[key]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(key))
		ls = &linkState{rng: rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))}
		s.lstat[key] = ls
	}
	return ls
}

func memberOf(set []string, host string) bool {
	for _, h := range set {
		if h == host {
			return true
		}
	}
	return false
}

// partitioned reports whether a message from→to crosses an active cut.
func (s *FaultSchedule) isPartitioned(tick uint64, from, to string) bool {
	for _, p := range s.parts {
		if tick < p.FromMessage || tick >= p.UntilMessage {
			continue
		}
		if (memberOf(p.A, from) && memberOf(p.B, to)) || (memberOf(p.B, from) && memberOf(p.A, to)) {
			return true
		}
	}
	return false
}

// advance ticks the virtual clock and fires due crash/restart events.
func (s *FaultSchedule) advance(n *Network) uint64 {
	tick := s.tick.Add(1)
	for i := range s.crashes {
		c := &s.crashes[i]
		if tick >= c.AtMessage && c.crashed.CompareAndSwap(false, true) {
			n.Crash(c.Host)
			s.crashCount.Add(1)
			s.notify("crash", c.Host, "", tick)
		}
		if c.RestartAfter > 0 && tick >= c.AtMessage+c.RestartAfter &&
			c.crashed.Load() && c.restarted.CompareAndSwap(false, true) {
			n.Restart(c.Host)
			s.restarts.Add(1)
			s.notify("restart", c.Host, "", tick)
		}
	}
	return tick
}

// maxHold bounds how long a reorder-held message waits for a successor
// before a timer flushes it — keeps the link live when the held message
// was the last one in flight (the pathological case retries must survive,
// but the engine should not wedge a link forever).
const maxHold = 10 * time.Millisecond

// process applies the schedule to one Send. payload is already copied and
// past the per-connection injectors; deliver pushes bytes to the peer.
// It returns false when the message was consumed (dropped or held).
func (s *FaultSchedule) process(n *Network, from, to string, payload []byte, deliver func([]byte)) bool {
	tick := s.advance(n)

	if s.isPartitioned(tick, from, to) {
		s.partitioned.Add(1)
		s.dropped.Add(1)
		s.notify("partition", from, to, tick)
		return false
	}

	f, ok := s.rule(from, to)
	if !ok {
		return true // no rule: deliver inline, engine untouched
	}
	ls := s.link(from, to)
	ls.mu.Lock()

	drop := f.DropProb > 0 && ls.rng.Float64() < f.DropProb
	dup := f.DupProb > 0 && ls.rng.Float64() < f.DupProb
	corrupt := f.CorruptProb > 0 && ls.rng.Float64() < f.CorruptProb
	reorder := f.ReorderProb > 0 && ls.rng.Float64() < f.ReorderProb
	var jitter time.Duration
	if f.Jitter > 0 {
		jitter = time.Duration(ls.rng.Int63n(int64(f.Jitter)))
	}

	// Take over any held predecessor: it is delivered right after this
	// message (overtaken), or flushed on its own if this one is dropped.
	var prev *heldMsg
	if h := ls.held; h != nil {
		ls.held = nil
		h.timer.Stop()
		prev = h
	}

	if drop {
		ls.mu.Unlock()
		s.dropped.Add(1)
		s.notify("drop", from, to, tick)
		if prev != nil {
			prev.deliver(prev.payload)
		}
		return false
	}
	wrapped := prev != nil || dup
	if prev != nil {
		orig := deliver
		held := prev
		deliver = func(p []byte) {
			orig(p)
			held.deliver(held.payload)
		}
	}
	if corrupt && len(payload) > 0 {
		idx := 9
		if idx >= len(payload) {
			idx = len(payload) / 2
		}
		payload[idx] ^= 0x40
		s.corrupted.Add(1)
		s.notify("corrupt", from, to, tick)
	}
	if dup {
		orig := deliver
		deliver = func(p []byte) {
			orig(p)
			orig(append([]byte(nil), p...))
		}
		s.duplicated.Add(1)
		s.notify("dup", from, to, tick)
	}

	if reorder {
		// Hold this message; the link's next message (or the flush
		// timer) releases it.
		h := &heldMsg{payload: payload, deliver: deliver}
		h.timer = time.AfterFunc(maxHold, func() {
			ls.mu.Lock()
			if ls.held != h {
				ls.mu.Unlock()
				return
			}
			ls.held = nil
			ls.mu.Unlock()
			h.deliver(h.payload)
		})
		ls.held = h
		ls.mu.Unlock()
		s.reordered.Add(1)
		s.notify("reorder", from, to, tick)
		return false
	}

	delay := f.Latency + jitter
	if delay <= 0 {
		ls.mu.Unlock()
		if wrapped {
			// Duplication or an overtaken predecessor lives in the deliver
			// closure; the caller's inline path would bypass it.
			deliver(payload)
			return false
		}
		return true
	}
	ls.enqueue(delayedMsg{payload: payload, deliver: deliver, release: time.Now().Add(delay)})
	ls.mu.Unlock()
	s.delayed.Add(1)
	s.notify("delay", from, to, tick)
	return false
}

// PartitionHosts is a convenience for an even two-way split of the given
// hosts (sorted for determinism), useful when a test just needs "one
// partition" without caring about the cut.
func PartitionHosts(hosts []string, from, until uint64) Partition {
	sorted := append([]string(nil), hosts...)
	sort.Strings(sorted)
	half := len(sorted) / 2
	return Partition{A: sorted[:half], B: sorted[half:], FromMessage: from, UntilMessage: until}
}
