package load

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzArrivalSchedule holds the arrival generator to its contract over
// arbitrary spec fields: Validate either rejects the spec with an error
// or the spec (a) generates a monotone, ceiling-bounded schedule — no
// panics, no NaN-poisoned or overflowing timestamps, ever — and (b)
// streams through Arrivals exactly the schedule Times returns.
func FuzzArrivalSchedule(f *testing.F) {
	type seed struct {
		kind   Kind
		rate   float64
		n      int
		seed   uint64
		period uint64
		duty   float64
	}
	seeds := []seed{
		{Poisson, 33.5, 600, 7, 0, 0},
		{Bursty, 2, 64, 9, 4096, 0.25},
		{Fixed, 1000, 128, 0, 0, 0},
		{Poisson, MinRate, 16, math.MaxUint64, 0, 0},
		{Bursty, MaxRate, MaxRequests, 1, MaxPeriod, 1},
		{Fixed, 1, 4, 9, 0, 0}, // Fixed ignores its seed
		// Rejections Validate must produce, not panic over:
		{Poisson, 0, 4, 1, 0, 0},           // zero rate
		{Poisson, 1e308, 4, 1, 0, 0},       // overflow rate
		{Poisson, math.NaN(), 4, 1, 0, 0},  // NaN rate
		{Poisson, math.Inf(1), 1, 0, 0, 0}, // Inf rate
		{Poisson, 1, -1, 0, 0, 0},          // negative n
		{Bursty, 1, 4, 1, 0, 2},            // zero period, duty past 1
		{Bursty, 1, 4, 1, 10, math.NaN()},  // NaN duty
		{Fixed + 1, 1, 4, 0, 0, 0},         // unknown kind
	}
	for _, s := range seeds {
		f.Add(byte(s.kind), s.rate, s.n, s.seed, s.period, s.duty)
	}
	f.Fuzz(func(t *testing.T, kind byte, rate float64, n int, seed, period uint64, duty float64) {
		s := ArrivalSpec{Kind: Kind(kind), Rate: rate, N: n, Seed: seed, Period: period, Duty: duty}
		if s.Validate() != nil {
			return // rejected spec: the only other acceptable outcome
		}
		// Cap the schedule length so the fuzzer's throughput stays high;
		// the generator's per-step math is independent of N.
		capped := s
		if capped.N > 4096 {
			capped.N = 4096
		}
		times, err := capped.Times()
		g, gerr := capped.Arrivals()
		if gerr != nil {
			t.Fatalf("valid spec has no generator: %+v: %v", s, gerr)
		}
		for i := 0; ; i++ {
			ts, ok, serr := g.Next()
			if !ok {
				switch {
				case err == nil && (serr != nil || i != len(times)):
					t.Fatalf("stream ended at %d with %v; Times gave %d timestamps", i, serr, len(times))
				case err != nil && (serr == nil || serr.Error() != err.Error() ||
					!strings.HasSuffix(serr.Error(), fmt.Sprintf("at request %d", i))):
					t.Fatalf("stream ended at %d with %v; Times failed with %v", i, serr, err)
				}
				break
			}
			if err == nil && (i >= len(times) || ts != times[i]) {
				t.Fatalf("stream diverged from Times at %d: %d", i, ts)
			}
		}
		if err != nil {
			t.Fatalf("valid spec failed to schedule: %+v: %v", s, err)
		}
		if len(times) != capped.N {
			t.Fatalf("schedule length %d, want %d", len(times), capped.N)
		}
		for i, ts := range times {
			if ts > MaxScheduleCycles {
				t.Fatalf("timestamp %d exceeds ceiling: %d", i, ts)
			}
			if i > 0 && ts < times[i-1] {
				t.Fatalf("non-monotone schedule at %d: %d < %d", i, ts, times[i-1])
			}
		}
	})
}
