package des

import (
	"math"
	"math/rand"
	"testing"
)

// The reference model: a kernel run must fire exactly the events a
// stable sort by (timestamp, schedule order) fires, whichever handlers
// and nested schedules produced them.

// fired is one event as its handler saw it.
type fired struct {
	at  uint64
	who int // 0, 1: pointer handlers; 2, 3: values of one comparable type; twinWho
	arg uint64
}

const (
	// twinWho is a value of a second type whose fields equal valH{r, 2}'s:
	// the kernel must tell the two apart by type.
	twinWho = 4
	whos    = 5
)

// sched is one scheduling request: At(t) or, when rel, At(Now()+t)
// saturated at the end of the clock.
type sched struct {
	t   uint64
	rel bool
	who int
	arg uint64
}

// An arg packs | depth:4 | fan:2 | rest:58 |: an event of depth d > 0
// schedules fan children of depth d-1 when it fires.
const (
	depthShift = 60
	fanShift   = 58
	restMask   = 1<<fanShift - 1
)

// mix is a splitmix64 step.
func mix(seed, x uint64) uint64 {
	z := seed + x*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// spawn lists what the event with arg schedules when it fires. Times
// are small, so ties are common; absolute ones often lie in the past
// and must clamp, and one child in eight sits at the end of the clock,
// where a relative one must saturate.
func spawn(arg uint64) []sched {
	depth := arg >> depthShift
	if depth == 0 {
		return nil
	}
	out := make([]sched, arg>>fanShift&3)
	for j := range out {
		x := mix(arg, uint64(j))
		t := x % 64
		if x>>12&7 == 0 {
			t = math.MaxUint64 - t
		}
		out[j] = sched{t: t, rel: x>>6&1 == 1, who: int(x >> 7 % whos),
			arg: (depth-1)<<depthShift | x>>9&(3<<fanShift|restMask)}
	}
	return out
}

// orderRun drives a schedule through a kernel, logging every firing.
type orderRun struct {
	k   *Kernel
	a   *ptrA // the one handler of its type, as a simulation's machine is
	log []fired
}

func newOrderRun() *orderRun {
	r := &orderRun{k: New()}
	r.a = &ptrA{r}
	return r
}

type ptrA struct{ r *orderRun }
type ptrB struct{ r *orderRun }

// valH is a comparable value handler: equal values are one handler.
type valH struct {
	r  *orderRun
	id int
}

// twinH has valH's fields, so only its type tells it from a valH.
type twinH struct {
	r  *orderRun
	id int
}

func (h *ptrA) OnEvent(now, arg uint64) { h.r.fire(now, 0, arg) }
func (h *ptrB) OnEvent(now, arg uint64) { h.r.fire(now, 1, arg) }
func (h valH) OnEvent(now, arg uint64)  { h.r.fire(now, h.id, arg) }
func (h twinH) OnEvent(now, arg uint64) { h.r.fire(now, twinWho, arg) }

func (r *orderRun) fire(now uint64, who int, arg uint64) {
	r.log = append(r.log, fired{at: now, who: who, arg: arg})
	for _, c := range spawn(arg) {
		r.schedule(c)
	}
}

func (r *orderRun) schedule(s sched) {
	var h Handler
	switch s.who {
	case 0:
		h = r.a
	case 1:
		h = &ptrB{r} // a fresh pointer each time: a new handler
	case 2, 3:
		h = valH{r, s.who} // rebuilt each time: must reuse its slot
	case twinWho:
		h = twinH{r, 2}
	}
	r.k.At(timeOf(s, r.k.Now()), h, s.arg)
}

// timeOf is the timestamp s asks for when scheduled at clock now.
func timeOf(s sched, now uint64) uint64 {
	if !s.rel {
		return s.t
	}
	if s.t > math.MaxUint64-now {
		return math.MaxUint64
	}
	return now + s.t
}

// kernelOrder runs the initial schedule on a fresh kernel.
func kernelOrder(initial []sched) []fired {
	r := newOrderRun()
	for _, s := range initial {
		r.schedule(s)
	}
	r.k.Run()
	return r.log
}

// referenceOrder replays the same schedule on a plain list kept in
// schedule order. Each pop takes the first of its earliest events —
// the head of the list stably sorted by timestamp, which is the
// (timestamp, seq) order.
func referenceOrder(initial []sched) []fired {
	var q []fired
	var now uint64
	add := func(s sched) {
		q = append(q, fired{at: max(timeOf(s, now), now), who: s.who, arg: s.arg})
	}
	for _, s := range initial {
		add(s)
	}
	var log []fired
	for len(q) > 0 {
		first := 0
		for i := range q {
			if q[i].at < q[first].at {
				first = i
			}
		}
		e := q[first]
		q = append(q[:first], q[first+1:]...)
		now = e.at
		log = append(log, e)
		for _, c := range spawn(e.arg) {
			add(c)
		}
	}
	return log
}

// checkOrder fails t unless the kernel fires initial's events, and all
// they spawn, in the reference order.
func checkOrder(t testing.TB, initial []sched) {
	t.Helper()
	got := kernelOrder(initial)
	want := referenceOrder(initial)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("kernel fired %d events, reference %d", len(got), len(want))
	}
}

// TestOrderMatchesReference: random schedules over two pointer handler
// types, two values of a comparable type and a value of a twin type,
// with events scheduling more from inside their handlers, fire in
// reference order.
func TestOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		initial := make([]sched, 300)
		for i := range initial {
			initial[i] = sched{
				t:   uint64(rng.Intn(512)),
				rel: rng.Intn(2) == 0,
				who: rng.Intn(whos),
				arg: uint64(rng.Intn(4))<<depthShift | rng.Uint64()&(3<<fanShift|restMask),
			}
		}
		checkOrder(t, initial)
	}
}

// FuzzKernelOrder: each 3 input bytes become one initial event — its
// time, its handler and relative or absolute timing, and
// how deep and wide its nested schedules run — and the kernel must fire
// the whole cascade in reference order.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte("\x05\x00\xff\x05\x01\xff\x05\x02\xff\x05\x03\xff\x05\x04\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*64 {
			data = data[:3*64]
		}
		var initial []sched
		for i := 0; i+3 <= len(data); i += 3 {
			at, pick, shape := data[i], data[i+1], data[i+2]
			s := sched{t: uint64(at), rel: pick&8 != 0, who: int(pick&7) % whos,
				arg: uint64(shape>>6)<<depthShift | uint64(shape>>4&3)<<fanShift | uint64(i)<<8 | uint64(shape)}
			if pick&0x80 != 0 {
				s.t = math.MaxUint64 - s.t
			}
			initial = append(initial, s)
		}
		checkOrder(t, initial)
	})
}
