package load

import (
	"math"
	"strings"
	"testing"
)

func TestArrivalSpecRoundTrip(t *testing.T) {
	specs := []ArrivalSpec{
		{Kind: Poisson, Rate: 33.5, N: 600, Seed: 7},
		{Kind: Poisson, Rate: 0.125, N: 1, Seed: 0},
		{Kind: Bursty, Rate: 2, N: 64, Seed: 9, Period: 4096, Duty: 0.25},
		{Kind: Bursty, Rate: 1e6, N: MaxRequests, Seed: ^uint64(0), Period: MaxPeriod, Duty: 1},
		{Kind: Fixed, Rate: 1000, N: 128},
	}
	for _, s := range specs {
		got, err := ParseArrivalSpec(s.String())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got != s {
			t.Errorf("round trip: %s -> %+v want %+v", s, got, s)
		}
	}
}

func TestArrivalSpecRejects(t *testing.T) {
	bad := []string{
		"",
		"poisson",                              // no fields
		"warp:rate=1,n=4",                      // unknown kind
		"poisson:rate=1",                       // missing n
		"poisson:n=4,seed=1",                   // missing rate
		"poisson:rate=1,n=4,rate=2",            // duplicate key
		"poisson:rate=1,n=4,duty=0.5",          // key not allowed for kind
		"fixed:rate=1,n=4,seed=9",              // fixed takes no seed
		"poisson:rate=0,n=4",                   // zero rate
		"poisson:rate=-3,n=4",                  // negative rate
		"poisson:rate=1e308,n=4",               // overflow rate
		"poisson:rate=NaN,n=4",                 // NaN
		"poisson:rate=+Inf,n=4",                // Inf
		"poisson:rate=1,n=-1",                  // negative n
		"poisson:rate=1,n=999999999",           // n past MaxRequests
		"bursty:rate=1,n=4,period=0,duty=0.5",  // zero period
		"bursty:rate=1,n=4,period=10,duty=0",   // duty under MinDuty
		"bursty:rate=1,n=4,period=10,duty=NaN", // NaN duty
		"bursty:rate=1,n=4,period=10",          // missing duty
		"poisson:rate=1,n=4,junk",              // field without '='
	}
	for _, in := range bad {
		if _, err := ParseArrivalSpec(in); err == nil {
			t.Errorf("accepted %q", in)
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
			t.Fatalf("%s: %v", s, err)
		}
		b, _ := s.Times()
		if len(a) != s.N || len(b) != s.N {
			t.Fatalf("%s: got %d/%d times, want %d", s, len(a), len(b), s.N)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic at %d: %d vs %d", s, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: non-monotone at %d: %d < %d", s, i, a[i], a[i-1])
			}
			if a[i] > MaxScheduleCycles {
				t.Fatalf("%s: time %d exceeds ceiling", s, a[i])
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
