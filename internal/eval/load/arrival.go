package load

import (
	"fmt"
	"math"
)

// Arrival processes. A schedule is a monotone sequence of arrival
// timestamps in modeled cycles, generated from a compact seeded spec so
// a sweep point's offered load is reproducible from its spec alone.
// All randomness comes from a splitmix64 stream keyed by the spec's
// seed — never math/rand, whose sequence is not stable across Go
// releases.

// Kind selects the arrival process.
type Kind uint8

const (
	// Poisson arrivals: exponential i.i.d. interarrival gaps — the
	// classic open-loop memoryless client population.
	Poisson Kind = iota
	// Bursty arrivals: an on/off-modulated Poisson process. Arrivals
	// occur only during the first Duty fraction of each Period, at rate
	// Rate/Duty, so the long-run average rate still equals Rate but the
	// instantaneous rate during a burst is 1/Duty times higher.
	Bursty
	// Fixed arrivals: a deterministic fixed-rate pacer (interarrival
	// exactly 1/Rate) — the zero-variance baseline.
	Fixed
)

func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Fixed:
		return "fixed"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec bounds. Rates are requests per Mcycle (10^6 modeled cycles);
// the bounds keep every schedule's final timestamp far from uint64
// overflow even under worst-case exponential draws (-ln(2^-53) ≈ 36.7
// mean interarrivals), so Times can promise monotone, bounded output
// for every Validate-accepted spec.
const (
	// MaxRequests bounds a single schedule's length.
	MaxRequests = 1 << 21
	// MinRate / MaxRate bound the offered load, requests per Mcycle.
	MinRate = 1e-3
	MaxRate = 1e9
	// MinDuty bounds how extreme a bursty duty cycle can get.
	MinDuty = 0.01
	// MaxPeriod bounds the bursty on/off period, in cycles.
	MaxPeriod = 1 << 40
	// MaxScheduleCycles is the ceiling on any generated timestamp;
	// Times reports an error instead of exceeding it.
	MaxScheduleCycles = uint64(1) << 60
)

// ArrivalSpec is one seeded arrival process. The zero value is not
// valid.
type ArrivalSpec struct {
	Kind Kind
	Rate float64 // mean requests per Mcycle, in [MinRate, MaxRate]
	N    int     // number of requests, in [0, MaxRequests]
	Seed uint64  // PRNG seed (unused by Fixed)

	// Bursty-only shape parameters.
	Period uint64  // on/off period in cycles, in [1, MaxPeriod]
	Duty   float64 // fraction of each period that is "on", in [MinDuty, 1]
}

// Validate checks the spec against the documented bounds. Every
// rejection is an error, never a panic: NaN/Inf/zero/negative rates
// must die here, not overflow a schedule later.
func (s ArrivalSpec) Validate() error {
	if s.Kind > Fixed {
		return fmt.Errorf("load: unknown arrival kind %d", s.Kind)
	}
	if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("load: rate must be finite, got %v", s.Rate)
	}
	if s.Rate < MinRate || s.Rate > MaxRate {
		return fmt.Errorf("load: rate %g outside [%g, %g] req/Mcycle", s.Rate, float64(MinRate), float64(MaxRate))
	}
	if s.N < 0 || s.N > MaxRequests {
		return fmt.Errorf("load: n %d outside [0, %d]", s.N, MaxRequests)
	}
	if s.Kind == Bursty {
		if math.IsNaN(s.Duty) || s.Duty < MinDuty || s.Duty > 1 {
			return fmt.Errorf("load: duty %v outside [%g, 1]", s.Duty, float64(MinDuty))
		}
		if s.Period < 1 || s.Period > MaxPeriod {
			return fmt.Errorf("load: period %d outside [1, %d]", s.Period, int64(MaxPeriod))
		}
	}
	return nil
}

// splitmix is the schedule PRNG: tiny, stable forever, and trivially
// seedable per spec.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// exp draws a standard-exponential variate: -ln(U) with U in (0, 1],
// so the draw is finite (at most ~36.7) and never NaN.
func (r *splitmix) exp() float64 {
	u := float64(r.next()>>11) / (1 << 53) // [0, 1)
	return -math.Log(1 - u)
}

// Arrivals generates a schedule one timestamp at a time, for callers
// that consume arrivals in order and need not hold them all. It is the
// only implementation of the three processes; Times collects it.
type Arrivals struct {
	spec ArrivalSpec
	mean float64 // mean interarrival, cycles
	rng  splitmix
	i    int     // timestamps returned so far
	t    float64 // Poisson: last arrival; Bursty: on-axis time
	err  error
}

// Arrivals validates the spec and returns a generator positioned at its
// first arrival.
func (s ArrivalSpec) Arrivals() (*Arrivals, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Arrivals{spec: s, mean: 1e6 / s.Rate, rng: splitmix{s: s.Seed}}, nil
}

// Next returns the next arrival timestamp, in cycles. ok is false once
// all N have been returned, or when the next timestamp would exceed
// MaxScheduleCycles: err then says so, and every later call repeats it.
func (g *Arrivals) Next() (t uint64, ok bool, err error) {
	s := &g.spec
	if g.err != nil || g.i == s.N {
		return 0, false, g.err
	}
	var next float64
	switch s.Kind {
	case Fixed:
		next = g.mean * float64(g.i+1)
	case Poisson:
		g.t += g.rng.exp() * g.mean
		next = g.t
	case Bursty:
		// A Poisson process on the "on-time" axis, mapped into real
		// time by skipping the off window of every period. Interarrival
		// mean on the on-axis is mean*Duty, so the long-run average
		// rate over real time is exactly Rate.
		onLen := s.Duty * float64(s.Period)
		g.t += g.rng.exp() * g.mean * s.Duty
		k := math.Floor(g.t / onLen)
		next = k*float64(s.Period) + (g.t - k*onLen)
	}
	if next > float64(MaxScheduleCycles) {
		g.err = fmt.Errorf("load: %s schedule exceeds %d cycles at request %d", s.Kind, MaxScheduleCycles, g.i)
		return 0, false, g.err
	}
	g.i++
	return uint64(next), true, nil
}

// Times generates the whole schedule: N monotone non-decreasing arrival
// timestamps in cycles, all <= MaxScheduleCycles. A spec whose draws
// would exceed the ceiling returns an error rather than wrapping.
func (s ArrivalSpec) Times() ([]uint64, error) {
	g, err := s.Arrivals()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, s.N)
	for {
		t, ok, err := g.Next()
		if !ok {
			if err != nil {
				return nil, err
			}
			return out, nil
		}
		out = append(out, t)
	}
}
