package des

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// recorder collects (now, arg) pairs in firing order.
type recorder struct {
	times []uint64
	args  []uint64
}

func (r *recorder) OnEvent(now, arg uint64) {
	r.times = append(r.times, now)
	r.args = append(r.args, arg)
}

// TestFIFOAmongEqualTimestamps: events scheduled at the same virtual
// instant fire in schedule order — the (timestamp, seq) tie-break.
func TestFIFOAmongEqualTimestamps(t *testing.T) {
	k := New()
	rec := &recorder{}
	const n = 1000
	// Interleave three timestamp groups so FIFO within a group has to
	// survive heap restructuring by the other groups.
	for i := 0; i < n; i++ {
		k.At(uint64(100+(i%3)*50), rec, uint64(i))
	}
	k.Run()
	var perGroup [3][]uint64
	for i, arg := range rec.args {
		g := int(rec.times[i]-100) / 50
		perGroup[g] = append(perGroup[g], arg)
	}
	for g, args := range perGroup {
		for i := 1; i < len(args); i++ {
			if args[i] < args[i-1] {
				t.Fatalf("group %d: arg %d fired before %d — FIFO among equal timestamps violated",
					g, args[i], args[i-1])
			}
		}
	}
}

// TestMonotoneClock: the virtual clock never runs backwards, events
// never fire before their timestamp, and past-dated At clamps to Now.
func TestMonotoneClock(t *testing.T) {
	k := New()
	rec := &recorder{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k.At(uint64(rng.Intn(1<<20)), rec, uint64(i))
	}
	st := k.Run()
	for i := 1; i < len(rec.times); i++ {
		if rec.times[i] < rec.times[i-1] {
			t.Fatalf("clock ran backwards: event %d at %d after %d", i, rec.times[i], rec.times[i-1])
		}
	}
	if st.Now != rec.times[len(rec.times)-1] {
		t.Fatalf("final clock %d != last event time %d", st.Now, rec.times[len(rec.times)-1])
	}

	// Past-dated schedule from inside a handler clamps to the clock.
	p := &pastDater{k: New()}
	p.k.At(1000, p, 0)
	p.k.Run()
	if len(p.fired) != 2 || p.fired[1] != 1000 {
		t.Fatalf("events fired at %v, want [1000 1000]: a past-dated event must clamp to the clock", p.fired)
	}
}

// pastDater, on its first event, schedules a second one in the past.
type pastDater struct {
	k     *Kernel
	fired []uint64
}

func (p *pastDater) OnEvent(now, arg uint64) {
	p.fired = append(p.fired, now)
	if arg == 0 {
		p.k.At(5, p, 1) // 5 << now: must clamp
	}
}

// TestPopAllEqualsSortedInsertOrder: draining the heap yields exactly
// the stable sort of the inserts by (timestamp, insertion sequence).
func TestPopAllEqualsSortedInsertOrder(t *testing.T) {
	type ins struct {
		at  uint64
		arg uint64
	}
	rng := rand.New(rand.NewSource(42))
	k := New()
	rec := &recorder{}
	var inserts []ins
	for i := 0; i < 20000; i++ {
		e := ins{at: uint64(rng.Intn(4096)), arg: uint64(i)}
		inserts = append(inserts, e)
		k.At(e.at, rec, e.arg)
	}
	k.Run()
	sort.SliceStable(inserts, func(i, j int) bool { return inserts[i].at < inserts[j].at })
	if len(rec.args) != len(inserts) {
		t.Fatalf("fired %d events, inserted %d", len(rec.args), len(inserts))
	}
	for i := range inserts {
		if rec.args[i] != inserts[i].arg || rec.times[i] != inserts[i].at {
			t.Fatalf("pop %d = (t=%d, arg=%d), want (t=%d, arg=%d)",
				i, rec.times[i], rec.args[i], inserts[i].at, inserts[i].arg)
		}
	}
}

// TestHandlerScheduling: handlers scheduling follow-up events see them
// fire in order, and stats count both generations.
func TestHandlerScheduling(t *testing.T) {
	c := &chain{k: New()}
	c.k.At(50, c, 0)
	st := c.k.Run()
	if len(c.order) != 10 {
		t.Fatalf("chain fired %d times, want 10", len(c.order))
	}
	for i, now := range c.order {
		if want := uint64(50 + 100*i); now != want {
			t.Fatalf("hop %d at %d, want %d", i, now, want)
		}
	}
	if st.Processed != 10 || st.Scheduled != 10 {
		t.Fatalf("stats %+v, want 10 processed / 10 scheduled", st)
	}
	if st.PeakLive != 1 {
		t.Fatalf("peak live %d, want 1 (strict chain)", st.PeakLive)
	}
}

// chain fires hop after hop, each scheduling the next 100 cycles on,
// until its tenth.
type chain struct {
	k     *Kernel
	order []uint64
}

func (c *chain) OnEvent(now, hop uint64) {
	c.order = append(c.order, now)
	if hop+1 < 10 {
		c.k.At(now+100, c, hop+1)
	}
}

// TestRunDeterminism: two kernels fed the same schedule produce
// identical firing sequences and identical stats.
func TestRunDeterminism(t *testing.T) {
	run := func() (*recorder, Stats) {
		k := New()
		rec := &recorder{}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 10000; i++ {
			k.At(uint64(rng.Intn(1<<16)), rec, uint64(i))
		}
		return rec, k.Run()
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	for i := range r1.args {
		if r1.args[i] != r2.args[i] || r1.times[i] != r2.times[i] {
			t.Fatalf("event %d diverges across identical runs", i)
		}
	}
}

// TestEventRecord pins the event heap's element: 24 bytes of plain
// words, so the heap array holds no pointer for the garbage collector
// to scan and a sift writes none.
func TestEventRecord(t *testing.T) {
	typ := reflect.TypeOf(event{})
	if typ.Size() != 24 {
		t.Errorf("event is %d bytes, want 24", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint64 {
			t.Errorf("event.%s is a %s, want a uint64", f.Name, f.Type)
		}
	}
}

// counter counts its events.
type counter struct{ n int }

func (c *counter) OnEvent(uint64, uint64) { c.n++ }

// TestAtStepAllocs: with its heap warm, scheduling and firing an event
// for an already-interned handler allocates nothing.
func TestAtStepAllocs(t *testing.T) {
	k := New()
	h := &counter{}
	for i := 0; i < 1024; i++ {
		k.At(uint64(i*7919%4096), h, 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.At(k.Now()+4096, h, 1)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step made %.1f allocations, want 0", allocs)
	}
}

// tagHandler is a comparable value handler that logs its tag when it
// fires: each distinct tag is a distinct handler.
type tagHandler struct {
	tag  uint32
	seen *[]uint32
}

func (h tagHandler) OnEvent(uint64, uint64) { *h.seen = append(*h.seen, h.tag) }

// TestHandlerTableBound: a kernel interns up to 65,536 distinct
// handlers, every slot up to the last one runs its own handler, an
// equal value reuses its slot, and one more panics with the kernel left
// usable.
func TestHandlerTableBound(t *testing.T) {
	const most = 1 << 16
	var seen []uint32
	h := func(tag int) Handler { return tagHandler{uint32(tag), &seen} }
	k := New()
	for i := 0; i < most; i++ {
		k.At(uint64(i), h(i), 0)
	}
	k.At(most, h(7), 0) // interned already: no new slot
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling a 65,537th distinct handler did not panic")
			}
		}()
		k.At(most, h(most), 0)
	}()
	if n := k.Len(); n != most+1 {
		t.Fatalf("%d events pending after the panic, want %d", n, most+1)
	}
	k.At(most+1, h(most-1), 0) // the last slot's handler, interned already
	if st := k.Run(); st.Processed != most+2 {
		t.Fatalf("processed %d events, want %d", st.Processed, most+2)
	}
	for i := 0; i < most; i++ {
		if seen[i] != uint32(i) {
			t.Fatalf("event %d ran handler %d, want %d", i, seen[i], i)
		}
	}
	if seen[most] != 7 || seen[most+1] != most-1 {
		t.Fatalf("last two events ran handlers %d and %d, want 7 and %d", seen[most], seen[most+1], most-1)
	}
}

// nopHandler does nothing, as the benchmark's DES rung's handler does.
type nopHandler struct{}

func (nopHandler) OnEvent(uint64, uint64) {}

// BenchmarkKernelStep times one At plus one Step on a steady
// 1,024-event heap: the loop the benchmark's des.push_pop_ns rung
// times, with the same handler and the same timestamps.
func BenchmarkKernelStep(b *testing.B) {
	k := New()
	var h nopHandler
	const depth = 1024
	for i := uint64(0); i < depth; i++ {
		k.At(mix(1, i+1)%1_000_000, h, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := uint64(depth); i < depth+uint64(b.N); i++ {
		k.At(k.Now()+mix(1, i+1)%1_000_000, h, 0)
		k.Step()
	}
}
