package load

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzArrivalSchedule holds the spec parser to its contract on
// arbitrary input: parse either rejects with an error or yields a spec
// that (a) validates, (b) round-trips through its canonical String
// form, (c) generates a monotone, ceiling-bounded schedule — no
// panics, no NaN-poisoned or overflowing timestamps, ever — and (d)
// streams through Arrivals exactly the schedule Times returns.
func FuzzArrivalSchedule(f *testing.F) {
	seeds := []string{
		"poisson:rate=33.5,n=600,seed=7",
		"bursty:rate=2,n=64,seed=9,period=4096,duty=0.25",
		"fixed:rate=1000,n=128",
		"poisson:rate=0.001,n=16,seed=18446744073709551615",
		"bursty:rate=1e9,n=2097152,seed=1,period=1099511627776,duty=1",
		// Rejections the parser must produce, not panic over:
		"poisson:rate=0,n=4,seed=1",     // zero rate
		"poisson:rate=1e308,n=4,seed=1", // overflow rate
		"poisson:rate=NaN,n=4,seed=1",   // NaN rate
		"bursty:rate=1,n=4,seed=1,period=0,duty=2",
		"fixed:rate=1,n=4,seed=9", // key not allowed
		"poisson:rate=1,n=4,rate=2",
		"::,=,",
		"poisson:rate=+Inf,n=1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseArrivalSpec(in)
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed spec fails Validate: %q -> %+v: %v", in, s, err)
		}
		rt, err := ParseArrivalSpec(s.String())
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %q -> %q: %v", in, s.String(), err)
		}
		if rt != s {
			t.Fatalf("round trip diverged: %q -> %+v -> %+v", in, s, rt)
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
			t.Fatalf("valid spec has no generator: %q: %v", in, gerr)
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
			t.Fatalf("valid spec failed to schedule: %q: %v", in, err)
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
