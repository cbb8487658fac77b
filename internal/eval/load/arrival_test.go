package load

import (
	"math"
	"strings"
	"testing"
)

// TestArrivalSpecRejects: Validate refuses every spec outside the
// documented bounds, with an error and before any schedule is drawn.
func TestArrivalSpecRejects(t *testing.T) {
	bad := map[string]ArrivalSpec{
		"zero rate":          {Kind: Poisson, Rate: 0, N: 4},
		"negative rate":      {Kind: Poisson, Rate: -3, N: 4},
		"overflow rate":      {Kind: Poisson, Rate: 1e308, N: 4},
		"NaN rate":           {Kind: Poisson, Rate: math.NaN(), N: 4},
		"Inf rate":           {Kind: Poisson, Rate: math.Inf(1), N: 4},
		"negative n":         {Kind: Poisson, Rate: 1, N: -1},
		"n past MaxRequests": {Kind: Poisson, Rate: 1, N: 999999999},
		"zero period":        {Kind: Bursty, Rate: 1, N: 4, Period: 0, Duty: 0.5},
		"duty under MinDuty": {Kind: Bursty, Rate: 1, N: 4, Period: 10, Duty: 0},
		"NaN duty":           {Kind: Bursty, Rate: 1, N: 4, Period: 10, Duty: math.NaN()},
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
		if _, err := s.Times(); err == nil {
			t.Errorf("%s: Times accepted %+v", name, s)
		}
	}
}

func TestTimesDeterministicMonotone(t *testing.T) {
	specs := []ArrivalSpec{
		{Kind: Poisson, Rate: 40, N: 500, Seed: 3},
		{Kind: Bursty, Rate: 40, N: 500, Seed: 3, Period: 200_000, Duty: 0.2},
		{Kind: Fixed, Rate: 40, N: 500},
	}
	for _, s := range specs {
		a, err := s.Times()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		b, _ := s.Times()
		if len(a) != s.N || len(b) != s.N {
			t.Fatalf("%+v: got %d/%d times, want %d", s, len(a), len(b), s.N)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%+v: nondeterministic at %d: %d vs %d", s, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%+v: non-monotone at %d: %d < %d", s, i, a[i], a[i-1])
			}
			if a[i] > MaxScheduleCycles {
				t.Fatalf("%+v: time %d exceeds ceiling", s, a[i])
			}
		}
	}
}

// TestTimesMeanRate: the empirical rate of a long Poisson schedule must
// land near the spec's rate (law of large numbers, seeded so no flake).
func TestTimesMeanRate(t *testing.T) {
	s := ArrivalSpec{Kind: Poisson, Rate: 10, N: 20000, Seed: 5}
	times, err := s.Times()
	if err != nil {
		t.Fatal(err)
	}
	last := float64(times[len(times)-1])
	rate := float64(s.N) * 1e6 / last
	if rate < 9.5 || rate > 10.5 {
		t.Fatalf("empirical rate %.3f, want ~10", rate)
	}
	// Bursty with the same rate must also average out to ~Rate.
	b := ArrivalSpec{Kind: Bursty, Rate: 10, N: 20000, Seed: 5, Period: 1 << 20, Duty: 0.25}
	bt, err := b.Times()
	if err != nil {
		t.Fatal(err)
	}
	brate := float64(b.N) * 1e6 / float64(bt[len(bt)-1])
	if brate < 9 || brate > 11 {
		t.Fatalf("bursty empirical rate %.3f, want ~10", brate)
	}
}

func TestTimesFixedSpacing(t *testing.T) {
	s := ArrivalSpec{Kind: Fixed, Rate: 100, N: 10} // mean 10_000 cycles
	times, err := s.Times()
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range times {
		if want := uint64(10_000 * (i + 1)); ts != want {
			t.Fatalf("fixed time %d: %d want %d", i, ts, want)
		}
	}
}

// TestBurstyWithinOnWindows: every bursty arrival must land inside the
// on-window of its period.
func TestBurstyWithinOnWindows(t *testing.T) {
	s := ArrivalSpec{Kind: Bursty, Rate: 50, N: 2000, Seed: 11, Period: 100_000, Duty: 0.25}
	times, err := s.Times()
	if err != nil {
		t.Fatal(err)
	}
	onLen := s.Duty * float64(s.Period)
	for i, ts := range times {
		off := math.Mod(float64(ts), float64(s.Period))
		if off > onLen+1 { // +1 for float->uint truncation slack
			t.Fatalf("arrival %d at %d: offset %.0f outside on-window %.0f", i, ts, off, onLen)
		}
	}
}

func TestKindString(t *testing.T) {
	if Poisson.String() != "poisson" || Bursty.String() != "bursty" || Fixed.String() != "fixed" {
		t.Fatal("kind names changed")
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Fatal("unknown kind should render as Kind(n)")
	}
}

// TestArrivalsCeilingError: a timestamp past MaxScheduleCycles ends the
// stream with an error naming the request, never a wrapped value, and
// every later call repeats it. Validate keeps every accepted spec far
// below the ceiling, so the generator is built here around a rate no
// spec may carry.
func TestArrivalsCeilingError(t *testing.T) {
	s := ArrivalSpec{Kind: Fixed, Rate: 1e-13, N: 4}
	g := &Arrivals{spec: s, mean: 1e6 / s.Rate}
	for i := 0; i < 2; i++ {
		ts, ok, err := g.Next()
		if ok || err == nil || !strings.Contains(err.Error(), "exceeds") || !strings.HasSuffix(err.Error(), "at request 0") {
			t.Fatalf("call %d: Next = %d, %v, %v; want the ceiling error at request 0", i, ts, ok, err)
		}
	}
}
