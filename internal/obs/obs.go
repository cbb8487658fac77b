// Package obs is the deterministic observability layer: tracing spans
// and metric counters threaded through the simulator, timestamped by
// the instruction tallies the paper's evaluation is built on — never by
// wall clock — so a trace is byte-identical across -workers settings
// and replayable from a seed.
//
// # Span model
//
// A Trace is a set of named tracks. A track is one logical sequential
// lane (one table row, one Figure 3 point's SGX leg, one attestation
// rig); all events on a track are totally ordered by a per-track
// sequence number. Concurrent work must use distinct tracks — the eval
// runner gives every parallel leg its own track — which is what keeps
// the exported trace independent of scheduling: per-track order is
// program order, and the exporters emit tracks sorted by name.
//
// Spans nest on a track (strict LIFO). Each span carries the
// core.Tally delta its phase consumed, measured as the difference of
// its meters' snapshots between Begin and End; a span with no meters is
// an aggregate span whose delta is the sum of its direct children.
//
// # Deterministic clock
//
// Each track has a virtual clock in estimated cycles. Begin stamps the
// current clock; End stamps begin + delta.Cycles(), clamped monotone,
// and advances the clock there. Because deltas come from Meters —
// which PR 2 made exactly reproducible — timestamps are too.
//
// All Trace and Span methods are nil-receiver no-ops, so call sites
// stay unconditional and tracing-off costs one pointer test.
package obs

import (
	"sort"
	"sync"

	"sgxnet/internal/core"
)

// Event phase kinds, in the spirit of the Chrome trace-event format.
const (
	PhaseBegin   = "B" // span open
	PhaseEnd     = "E" // span close; carries the span's tally delta
	PhaseInstant = "I" // point event (fault injected, retry attempted…)
	PhaseTotal   = "T" // independently-reported run total, for attribution
	PhaseMetric  = "M" // final metric counter value
)

// Event is one trace record. The JSONL exporter writes these verbatim,
// one per line; field order (and encoding/json's sorted map keys for
// Attrs) makes the encoding deterministic.
type Event struct {
	Track  string            `json:"track"`
	Seq    uint64            `json:"seq"`
	TS     uint64            `json:"ts"` // virtual clock, estimated cycles
	Ph     string            `json:"ph"`
	Name   string            `json:"name"`
	Depth  int               `json:"depth,omitempty"`
	SGXU   uint64            `json:"sgxu,omitempty"`
	Normal uint64            `json:"normal,omitempty"`
	Cycles uint64            `json:"cycles,omitempty"`
	Value  uint64            `json:"value,omitempty"` // metric records only
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// track is one sequential lane of a Trace.
type track struct {
	mu     sync.Mutex
	name   string
	clock  uint64 // virtual cycles
	seq    uint64
	stack  []*Span
	events []Event
}

// emit appends an event with the next sequence number. Caller holds mu.
func (tk *track) emit(ev Event) {
	ev.Track = tk.name
	ev.Seq = tk.seq
	tk.seq++
	tk.events = append(tk.events, ev)
}

// Trace collects deterministic events across tracks. The zero value is
// not useful; use New. A nil *Trace is the disabled tracer: every
// method is a no-op and Begin returns a nil Span (also a no-op).
type Trace struct {
	mu     sync.Mutex
	tracks map[string]*track
	reg    *Registry
}

// New returns an empty Trace. If reg is non-nil, instant events also
// bump a per-event-kind counter ("event.<name>") in the registry, so
// fault injections and retry attempts show up in the metrics export
// without separate wiring.
func New(reg *Registry) *Trace {
	return &Trace{tracks: make(map[string]*track), reg: reg}
}

// Registry returns the attached registry (nil if none, or t is nil).
func (t *Trace) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *Trace) track(name string) *track {
	t.mu.Lock()
	tk := t.tracks[name]
	if tk == nil {
		tk = &track{name: name}
		t.tracks[name] = tk
	}
	t.mu.Unlock()
	return tk
}

// Span is an open trace span. End it exactly once, in LIFO order per
// track. A nil Span is a no-op.
type Span struct {
	tk     *track
	name   string
	meters []*core.Meter
	starts []core.Tally
	agg    core.Tally // accumulated deltas of direct children (aggregate spans)
	begin  uint64     // track clock at Begin
	depth  int
	ended  bool
}

// Begin opens a span on the named track, snapshotting the given meters
// once they settle (core.Meter.Settle), as End does too: a span is a
// phase boundary. The span's delta at End is the summed growth of those
// meters; with no meters the span is an aggregate whose delta is the
// sum of its direct children's deltas.
func (t *Trace) Begin(trackName, name string, meters ...*core.Meter) *Span {
	if t == nil {
		return nil
	}
	for _, m := range meters {
		m.Settle()
	}
	tk := t.track(trackName)
	tk.mu.Lock()
	defer tk.mu.Unlock()
	s := &Span{tk: tk, name: name, meters: meters, begin: tk.clock, depth: len(tk.stack)}
	s.starts = make([]core.Tally, len(meters))
	for i, m := range meters {
		s.starts[i] = m.Snapshot()
	}
	tk.stack = append(tk.stack, s)
	tk.emit(Event{TS: tk.clock, Ph: PhaseBegin, Name: name, Depth: s.depth})
	return s
}

// End closes the span: computes its tally delta, stamps the end event
// at begin+delta cycles (clamped monotone), advances the track clock,
// and folds the delta into the nearest open aggregate ancestor.
func (s *Span) End() {
	if s == nil {
		return
	}
	for _, m := range s.meters {
		m.Settle()
	}
	tk := s.tk
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	var delta core.Tally
	if len(s.meters) == 0 {
		delta = s.agg
	} else {
		for i, m := range s.meters {
			delta = delta.Add(m.Snapshot().Sub(s.starts[i]))
		}
	}
	// Pop this span (and, defensively, anything opened after it that
	// was never ended — Check flags that as a trace bug).
	for len(tk.stack) > 0 {
		top := tk.stack[len(tk.stack)-1]
		tk.stack = tk.stack[:len(tk.stack)-1]
		if top == s {
			break
		}
	}
	end := s.begin + delta.Cycles()
	if end < tk.clock {
		end = tk.clock
	}
	tk.clock = end
	if len(tk.stack) > 0 {
		if p := tk.stack[len(tk.stack)-1]; len(p.meters) == 0 {
			p.agg = p.agg.Add(delta)
		}
	}
	tk.emit(Event{TS: end, Ph: PhaseEnd, Name: s.name,
		Depth: s.depth, SGXU: delta.SGXU, Normal: delta.Normal, Cycles: delta.Cycles()})
}

// RecordSpan emits a complete span (begin+end) for a phase whose delta
// was measured externally — e.g. with Meter.SnapshotAndReset at a
// period boundary. The delta still advances the clock and folds into an
// open aggregate ancestor, so recorded and live spans compose. It is
// RecordSpanAt with start 0: the span begins at the track clock.
func (t *Trace) RecordSpan(trackName, name string, delta core.Tally) {
	t.RecordSpanAt(trackName, name, 0, delta)
}

// RecordSpanAt emits a complete span whose begin is pinned to an
// explicit virtual timestamp — the open-loop load engine's shape, where
// a request starts at max(arrival, server-idle) rather than wherever
// the track clock happens to sit. The clock first advances to start
// (clamped monotone: a start in the past begins the span at the track
// clock, as RecordSpan does), then by the delta, so queue idle gaps
// show up as gaps on the track instead of being silently compacted.
func (t *Trace) RecordSpanAt(trackName, name string, start uint64, delta core.Tally) {
	if t == nil {
		return
	}
	tk := t.track(trackName)
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if start > tk.clock {
		tk.clock = start
	}
	depth := len(tk.stack)
	tk.emit(Event{TS: tk.clock, Ph: PhaseBegin, Name: name, Depth: depth})
	tk.clock += delta.Cycles()
	if len(tk.stack) > 0 {
		if p := tk.stack[len(tk.stack)-1]; len(p.meters) == 0 {
			p.agg = p.agg.Add(delta)
		}
	}
	tk.emit(Event{TS: tk.clock, Ph: PhaseEnd, Name: name,
		Depth: depth, SGXU: delta.SGXU, Normal: delta.Normal, Cycles: delta.Cycles()})
}

// Event records an instant event (a fault injection, a retry attempt, a
// protocol message) at the track's current clock. Attrs may be nil.
func (t *Trace) Event(trackName, name string, attrs map[string]string) {
	if t == nil {
		return
	}
	if t.reg != nil {
		t.reg.Add("event."+name, 1)
	}
	tk := t.track(trackName)
	tk.mu.Lock()
	tk.emit(Event{TS: tk.clock, Ph: PhaseInstant, Name: name, Depth: len(tk.stack), Attrs: attrs})
	tk.mu.Unlock()
}

// Total records an independently-measured run total on the track — the
// denominator the analyzer attributes span costs against. Use the same
// tallies the run reports to its tables, so trace attribution is
// checked against the published numbers, not against itself.
func (t *Trace) Total(trackName, name string, d core.Tally) {
	if t == nil {
		return
	}
	tk := t.track(trackName)
	tk.mu.Lock()
	tk.emit(Event{TS: tk.clock, Ph: PhaseTotal, Name: name,
		SGXU: d.SGXU, Normal: d.Normal, Cycles: d.Cycles()})
	tk.mu.Unlock()
}

// Events returns every recorded event plus final metric records from
// the attached registry, sorted by (track, seq) — the canonical export
// order. Open spans are not closed; Check reports them.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	names := make([]string, 0, len(t.tracks))
	for name := range t.tracks {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Event
	for _, name := range names {
		tk := t.tracks[name]
		tk.mu.Lock()
		out = append(out, tk.events...)
		tk.mu.Unlock()
	}
	t.mu.Unlock()
	if t.reg != nil {
		for i, m := range t.reg.Snapshot() {
			out = append(out, Event{Track: "metrics", Seq: uint64(i), Ph: PhaseMetric,
				Name: m.Name, Value: m.Value})
		}
	}
	return out
}
