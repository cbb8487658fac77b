// Package series is the windowed time-series layer of the
// observability stack: deterministic counter and gauge samples keyed
// to the virtual cycle clock the whole repo shares (core.Meter tallies,
// obs.Trace span timestamps, and des.Kernel virtual time all count the
// same modeled cycles; the OpenMetrics export reads 1 cycle as 1 ns).
//
// A Set holds every series of one run, bucketed into fixed windows of N
// cycles. Instruments observe (timestamp, value) pairs; the set reduces
// them per window with order-invariant rules — counters sum, gauges
// keep the sample with the largest (timestamp, value) — so merging
// per-worker observations in any order yields byte-identical exports.
// That is the same guarantee the tables, traces, and goldens already
// give: `sgxnet-tables -series` is gated byte-identical at any
// -workers count.
//
// Timestamps are *virtual*: the load engine stamps requests with its
// FIFO server clock, the pager and the xcall rings borrow whatever
// clock their caller wires in (an engine clock, an accumulated meter),
// and the des kernel stamps events with its own heap clock. Wall time
// never appears, which is why the series are reproducible at all.
package series

import (
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultWindowCycles is the default window width: 4Mi cycles ≈ 4.2 ms
// of modeled time at the 1 GHz virtual clock — fine enough to resolve
// the load sweep's bursty on/off phases (period 64× mean service, tens
// of megacycles), coarse enough that million-event runs stay compact.
const DefaultWindowCycles = 4 << 20

// Kind classifies an instrument.
type Kind uint8

const (
	// Counter accumulates occurrences per window (faults, drains,
	// arrivals). The per-window value is already a delta.
	Counter Kind = iota
	// Gauge records a level (queue depth, ring occupancy, residency);
	// each window keeps the latest sample, ties broken toward the
	// larger value so merges stay order-invariant.
	Gauge
)

// String returns the CSV/OpenMetrics spelling.
func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	default:
		return "counter"
	}
}

// parseKind inverts String (ReadCSV).
func parseKind(s string) (Kind, bool) {
	switch s {
	case "counter":
		return Counter, true
	case "gauge":
		return Gauge, true
	}
	return Counter, false
}

// Series is one named instrument's windowed samples. Window indices are
// sparse: only windows that saw an observation hold an entry.
type Series struct {
	Name string
	Kind Kind

	mu      sync.Mutex
	vals    map[uint64]uint64 // window index -> reduced value
	gaugeTS map[uint64]uint64 // gauges: timestamp of the kept sample
}

func newSeries(name string, kind Kind) *Series {
	s := &Series{Name: name, Kind: kind, vals: make(map[uint64]uint64)}
	if kind == Gauge {
		s.gaugeTS = make(map[uint64]uint64)
	}
	return s
}

// observe folds one sample into window w. Counters sum; Gauge keeps
// the max-(ts, value) sample — a total order, so the reduction commutes
// and merging workers in any order gives the same windows.
func (s *Series) observe(w, ts, v uint64) {
	s.mu.Lock()
	switch s.Kind {
	case Gauge:
		prevTS, have := s.gaugeTS[w]
		if !have || ts > prevTS || (ts == prevTS && v > s.vals[w]) {
			s.vals[w] = v
			s.gaugeTS[w] = ts
		}
	default:
		s.vals[w] += v
	}
	s.mu.Unlock()
}

// Windows returns the observed window indices in ascending order.
func (s *Series) Windows() []uint64 {
	s.mu.Lock()
	out := make([]uint64, 0, len(s.vals))
	for w := range s.vals {
		out = append(out, w)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Value returns window w's reduced value (0 if unobserved).
func (s *Series) Value(w uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[w]
}

// Sum totals the windows in [from, to] — counters only (a gauge sum has
// no meaning, but the arithmetic is still deterministic).
func (s *Series) Sum(from, to uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum uint64
	for w, v := range s.vals {
		if w >= from && w <= to {
			sum += v
		}
	}
	return sum
}

// Len reports how many windows were observed.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// merge folds o into s under both locks (ordered: s then o — callers
// only merge distinct sets, Set.Merge documents the discipline).
func (s *Series) merge(o *Series) {
	o.mu.Lock()
	for w, v := range o.vals {
		var ts uint64
		if o.Kind == Gauge {
			ts = o.gaugeTS[w]
		}
		s.observe(w, ts, v)
	}
	o.mu.Unlock()
}

// Set is one run's collection of series, all sharing a window width.
// Safe for concurrent use: scenarios on different Runner workers write
// their own (track-prefixed, therefore distinct) series, and the map
// lock only guards creation.
type Set struct {
	window uint64

	mu     sync.RWMutex
	series map[string]*Series
}

// NewSet builds an empty set. window <= 0 selects DefaultWindowCycles.
func NewSet(window uint64) *Set {
	if window == 0 {
		window = DefaultWindowCycles
	}
	return &Set{window: window, series: make(map[string]*Series)}
}

// Window returns the window width in cycles.
func (s *Set) Window() uint64 {
	if s == nil {
		return 0
	}
	return s.window
}

// WindowOf maps a timestamp to its window index.
func (s *Set) WindowOf(t uint64) uint64 { return t / s.window }

// get returns (creating if needed) the named series. A name keeps the
// kind of its first registration; a kind mismatch is a programming
// error and panics — silently coercing would corrupt merges.
func (s *Set) get(name string, kind Kind) *Series {
	s.mu.RLock()
	sr := s.series[name]
	s.mu.RUnlock()
	if sr == nil {
		s.mu.Lock()
		sr = s.series[name]
		if sr == nil {
			sr = newSeries(name, kind)
			s.series[name] = sr
		}
		s.mu.Unlock()
	}
	if sr.Kind != kind {
		panic("series: " + name + " registered as " + sr.Kind.String() + ", observed as " + kind.String())
	}
	return sr
}

// Get returns the named series, or nil.
func (s *Set) Get(name string) *Series {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.series[name]
}

// Names returns every series name in ascending order.
func (s *Set) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	out := make([]string, 0, len(s.series))
	for n := range s.series {
		out = append(out, n)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len reports the number of series.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// Merge folds o's series into s: counters sum per window, gauges keep
// the max-(timestamp, value) sample. Order-invariant — merging worker
// sets in any order (or observing directly into one shared set) yields
// identical exports. o must not be s and must not receive concurrent
// observations during the merge.
func (s *Set) Merge(o *Set) {
	if s == nil || o == nil {
		return
	}
	o.mu.RLock()
	others := make([]*Series, 0, len(o.series))
	for _, sr := range o.series {
		others = append(others, sr)
	}
	o.mu.RUnlock()
	for _, osr := range others {
		s.get(osr.Name, osr.Kind).merge(osr)
	}
}

// Sampler returns an instrument handle whose observations land in the
// set under prefix + "/" + name. Safe for concurrent use (the tor rigs
// submit from several OR goroutines); a nil receiver — the tracing-off
// path — makes every method a no-op, mirroring obs.Trace.
func (s *Set) Sampler(prefix string) *Sampler {
	if s == nil {
		return nil
	}
	return &Sampler{set: s, prefix: prefix + "/"}
}

// Sampler binds a name prefix (conventionally the scenario's trace
// track) to a Set and caches name→series resolution so hot paths (the
// des kernel observes every event) skip the string concatenation and
// the set-level map after first touch.
type Sampler struct {
	set    *Set
	prefix string

	mu    sync.RWMutex
	cache map[string]*Series
}

// resolve returns the series for a local name, consulting the cache.
func (sm *Sampler) resolve(name string, kind Kind) *Series {
	sm.mu.RLock()
	sr := sm.cache[name]
	sm.mu.RUnlock()
	if sr != nil {
		if sr.Kind != kind {
			panic("series: " + sr.Name + " registered as " + sr.Kind.String() + ", observed as " + kind.String())
		}
		return sr
	}
	sr = sm.set.get(sm.prefix+name, kind)
	sm.mu.Lock()
	if sm.cache == nil {
		sm.cache = make(map[string]*Series)
	}
	sm.cache[name] = sr
	sm.mu.Unlock()
	return sr
}

// CountAt adds n occurrences at virtual time t to the counter `name`.
func (sm *Sampler) CountAt(name string, t, n uint64) {
	if sm == nil || n == 0 {
		return
	}
	sm.resolve(name, Counter).observe(sm.set.WindowOf(t), t, n)
}

// GaugeAt records level v at virtual time t on the gauge `name`.
func (sm *Sampler) GaugeAt(name string, t, v uint64) {
	if sm == nil {
		return
	}
	sm.resolve(name, Gauge).observe(sm.set.WindowOf(t), t, v)
}

// Set returns the underlying set (nil for a nil sampler).
func (sm *Sampler) Set() *Set {
	if sm == nil {
		return nil
	}
	return sm.set
}

// Clock is a shared monotone virtual clock instruments can stamp from
// when their subsystem has none of its own: the load engine advances
// one to each request's start/finish, and the rigs' pagers and rings
// read it so their fault and drain samples land inside the request
// window that caused them. Safe for concurrent use; a nil clock reads
// as zero.
type Clock struct{ v atomic.Uint64 }

// Now returns the current virtual time.
func (c *Clock) Now() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Advance moves the clock to t if t is later (monotone; concurrent
// advances keep the max).
func (c *Clock) Advance(t uint64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if t <= cur || c.v.CompareAndSwap(cur, t) {
			return
		}
	}
}
