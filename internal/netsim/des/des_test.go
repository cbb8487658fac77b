package des

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// recorder collects (now, arg) pairs in firing order.
type recorder struct {
	mu    sync.Mutex
	times []uint64
	args  []uint64
}

func (r *recorder) OnEvent(now, arg uint64) {
	r.mu.Lock()
	r.times = append(r.times, now)
	r.args = append(r.args, arg)
	r.mu.Unlock()
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
	k2 := New()
	k2.AtFunc(1000, func(now uint64) {
		k2.AtFunc(5, func(lateNow uint64) { // 5 << 1000: must clamp
			if lateNow < now {
				t.Errorf("past-dated event fired at %d, before the clock at %d", lateNow, now)
			}
		})
	})
	k2.Run()
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
	k := New()
	var order []uint64
	var chain func(now uint64)
	hops := 0
	chain = func(now uint64) {
		order = append(order, now)
		if hops++; hops < 10 {
			k.AfterFunc(100, chain)
		}
	}
	k.AtFunc(50, chain)
	st := k.Run()
	if len(order) != 10 {
		t.Fatalf("chain fired %d times, want 10", len(order))
	}
	for i, now := range order {
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

// TestRunUntil: the horizon cuts the schedule and advances the clock to
// the horizon even when no event lands on it.
func TestRunUntil(t *testing.T) {
	k := New()
	rec := &recorder{}
	for _, at := range []uint64{10, 20, 500, 900} {
		k.At(at, rec, at)
	}
	st := k.RunUntil(100)
	if len(rec.args) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(rec.args))
	}
	if st.Now != 100 {
		t.Fatalf("clock at %d after RunUntil(100)", st.Now)
	}
	st = k.Run()
	if len(rec.args) != 4 || st.Now != 900 {
		t.Fatalf("resume fired %d events, clock %d; want 4, 900", len(rec.args), st.Now)
	}
}

// TestBackgroundDrains: the background drainer executes scheduled
// events promptly in wall time regardless of how far apart they sit in
// virtual time, preserving (timestamp, seq) order.
func TestBackgroundDrains(t *testing.T) {
	k := New()
	rec := &recorder{}
	done := make(chan struct{})
	stop := k.Background()
	defer stop()
	// An hour of virtual time between events; wall time must not care.
	for i := 0; i < 100; i++ {
		k.At(uint64(i)*DurationCycles(time.Hour), rec, uint64(i))
	}
	k.AtFunc(101*DurationCycles(time.Hour), func(uint64) { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("background drainer did not reach the sentinel event in wall time")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := 1; i < len(rec.args); i++ {
		if rec.args[i] < rec.args[i-1] {
			t.Fatalf("background drain reordered events: %d before %d", rec.args[i], rec.args[i-1])
		}
	}
	if len(rec.args) != 100 {
		t.Fatalf("drained %d events, want 100", len(rec.args))
	}
}

// TestBackgroundConcurrentSchedulers: many goroutines scheduling into a
// draining kernel lose no events and never see the clock move backwards
// per (timestamp-ordered) firing — the -race job leans on this test.
func TestBackgroundConcurrentSchedulers(t *testing.T) {
	k := New()
	rec := &recorder{}
	stop := k.Background()
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				k.After(uint64(rng.Intn(1000)), rec, uint64(g*per+i))
			}
		}(g)
	}
	wg.Wait()
	// Drain: wait until everything scheduled has been processed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := k.Stats()
		if st.Processed == goroutines*per {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d events processed", st.Processed, goroutines*per)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.args) != goroutines*per {
		t.Fatalf("recorded %d events, want %d", len(rec.args), goroutines*per)
	}
	seen := make(map[uint64]bool, len(rec.args))
	for _, a := range rec.args {
		if seen[a] {
			t.Fatalf("event %d fired twice", a)
		}
		seen[a] = true
	}
}

// TestDurationCycles pins the wall↔virtual exchange rate.
func TestDurationCycles(t *testing.T) {
	if got := DurationCycles(time.Microsecond); got != 1000 {
		t.Fatalf("1µs = %d cycles, want 1000", got)
	}
	if got := DurationCycles(-time.Second); got != 0 {
		t.Fatalf("negative duration = %d cycles, want 0", got)
	}
}

// TestAfterSaturates: a delay past the end of the clock saturates at
// math.MaxUint64 instead of wrapping to a time before Now — After
// keeps the never-backwards invariant At keeps by clamping.
func TestAfterSaturates(t *testing.T) {
	k := New()
	rec := &recorder{}
	k.At(1000, rec, 0)
	k.Step()
	k.After(math.MaxUint64-10, rec, 1)
	k.AfterFunc(math.MaxUint64, func(uint64) {})
	k.Step()
	if now := k.Now(); now != math.MaxUint64 {
		t.Fatalf("After(MaxUint64-10) at clock 1000 fired at %d, want %d", now, uint64(math.MaxUint64))
	}
	k.Step()
	if now := k.Now(); now != math.MaxUint64 {
		t.Fatalf("AfterFunc(MaxUint64) left the clock at %d, want %d", now, uint64(math.MaxUint64))
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

// idHandler is a comparable value handler: each distinct value is a
// distinct handler.
type idHandler uint32

func (idHandler) OnEvent(uint64, uint64) {}

// TestHandlerTableBound: a kernel interns up to 65,535 distinct
// handlers, an equal value reuses its slot, and one more panics with
// the kernel left usable.
func TestHandlerTableBound(t *testing.T) {
	const most = 65_535
	k := New()
	for i := 0; i < most; i++ {
		k.At(0, idHandler(i), 0)
	}
	k.At(0, idHandler(7), 0) // interned already: no new slot
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling a 65,536th distinct handler did not panic")
			}
		}()
		k.At(0, idHandler(most), 0)
	}()
	if n := k.Len(); n != most+1 {
		t.Fatalf("%d events pending after the panic, want %d", n, most+1)
	}
	k.AtFunc(0, func(uint64) {})
	if st := k.Run(); st.Processed != most+2 {
		t.Fatalf("processed %d events, want %d", st.Processed, most+2)
	}
}

// TestBackgroundReleasesClosures: goroutines scheduling closures and
// handlers of their own into a draining kernel share its handler and
// closure tables; once every closure has fired, the closure table holds
// none of them.
func TestBackgroundReleasesClosures(t *testing.T) {
	k := New()
	stop := k.Background()
	const goroutines, per = 4, 250
	var fired sync.WaitGroup
	fired.Add(goroutines * per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := &counter{}
			for i := 0; i < per; i++ {
				k.AfterFunc(uint64(i%7), func(uint64) { fired.Done() })
				k.After(uint64(i%5), idHandler(g), 0)
				k.At(0, h, 0)
			}
		}(g)
	}
	wg.Wait()
	fired.Wait()
	stop()
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, fn := range k.funcs {
		if fn != nil {
			t.Fatalf("closure table entry %d still held after it fired", i)
		}
	}
	if len(k.free) != len(k.funcs) {
		t.Fatalf("%d of %d closure table entries free, want all", len(k.free), len(k.funcs))
	}
	if len(k.handlers) != 2*goroutines {
		t.Fatalf("%d handlers interned, want %d", len(k.handlers), 2*goroutines)
	}
}
