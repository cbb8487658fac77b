package main

import (
	"fmt"

	"sgxnet/internal/core"
	"sgxnet/internal/eval/load"
)

// The modelled side of a request workload. The host loop records each
// request's metered tally; those tallies are then replayed through
// load.Run as an open-loop Poisson stream into one FIFO server on the
// modelled cycle clock. A generator in virtual time cannot run late, and
// load.Run is deterministic, so every number here repeats exactly for a
// given seed and commit.

// tailQuantile is the tail the SLO is stated on: at the benchmark's
// request count, the highest percentile with at least ten samples
// beyond it.
const tailQuantile = 0.999

// capacityIters is the fixed bisection depth of the capacity search.
const capacityIters = 20

// modelResult is the modelled end of one request workload.
type modelResult struct {
	CyclesPerOp float64 // mean metered tally per request
	P50         uint64  // latency at the fixed rate, cycles
	Tail        uint64  // … at tailQuantile
	Capacity    float64 // highest rate (req/Mcycle) whose tail ≤ SLO
}

// modelMetrics are the modelled metrics of a request workload.
var modelMetrics = []metricDef{
	{"model_cycles_per_op", "cycles"},
	{"model_p50_cycles", "cycles"},
	{"model_p999_cycles", "cycles"},
	{"model_capacity_rpmc", "req/Mcycle"},
}

func (mr modelResult) values() []value {
	vs := []float64{mr.CyclesPerOp, float64(mr.P50), float64(mr.Tail), mr.Capacity}
	out := make([]value, len(vs))
	for i, v := range vs {
		out[i] = value{modelMetrics[i].Name, v, modelMetrics[i].Unit}
	}
	return out
}

// meanCycles is the mean modelled cost of the tallies.
func meanCycles(tallies []core.Tally) float64 {
	var total core.Tally
	for _, t := range tallies {
		total = total.Add(t)
	}
	return float64(total.Cycles()) / float64(len(tallies))
}

// replay runs the recorded tallies through load.Run at rate (requests
// per Mcycle) with a Poisson schedule drawn from seed.
func replay(tallies []core.Tally, seed uint64, rate float64, slo uint64) (load.StreamResult, error) {
	res, err := load.Run(nil, "", []load.StreamConfig{{
		Name: "bench",
		Spec: load.ArrivalSpec{Kind: load.Poisson, Rate: rate, N: len(tallies), Seed: seed},
		Srv:  load.ServerFunc(func(i int) (core.Tally, error) { return tallies[i], nil }),
		SLO:  slo,
	}})
	if err != nil {
		return load.StreamResult{}, err
	}
	return res.Streams[0], nil
}

// meetsSLO reports whether the tail of the replayed latencies is within
// the SLO once every failed request is also counted as a miss. The
// engine's violation count is exact (it compares raw latencies, not
// histogram buckets), so this is the nearest-rank test with no
// approximation: tail ≤ SLO ⇔ at most n − rank samples exceed it.
func meetsSLO(sr load.StreamResult, failed, n int) bool {
	return sr.Violations+uint64(failed) <= uint64(n-rankOf(tailQuantile, n))
}

// model replays tallies at the workload's fixed rate and searches for
// its capacity. failed counts requests that errored or whose output was
// wrong.
func model(tallies []core.Tally, failed int, seed uint64, rate float64, slo uint64) (modelResult, error) {
	if len(tallies) == 0 {
		return modelResult{}, fmt.Errorf("model: no requests")
	}
	mr := modelResult{CyclesPerOp: meanCycles(tallies)}
	sr, err := replay(tallies, seed, rate, slo)
	if err != nil {
		return mr, err
	}
	mr.P50 = sr.Hist.Quantile(0.5)
	mr.Tail = sr.Hist.Quantile(tailQuantile)
	mr.Capacity, _, err = capacity(tallies, failed, seed, slo)
	return mr, err
}

// capacity is the highest Poisson rate whose tail ≤ slo, found by a
// fixed-iteration bisection. The schedule at rate r is one seeded
// sequence of exponential gaps scaled by 1/r, and FIFO waits only grow
// as gaps shrink, so passing is monotone in the rate. The search starts
// at the rate that would keep the server exactly busy (ρ = 1) and
// doubles until a rate fails. It returns the last passing rate (0 when
// even the lowest legal rate fails) and the gap to the first failing
// one.
func capacity(tallies []core.Tally, failed int, seed uint64, slo uint64) (rate, step float64, err error) {
	mean := meanCycles(tallies)
	if mean == 0 {
		return 0, 0, fmt.Errorf("model: requests cost no cycles")
	}
	pass := func(r float64) (bool, error) {
		sr, err := replay(tallies, seed, r, slo)
		if err != nil {
			return false, err
		}
		return meetsSLO(sr, failed, len(tallies)), nil
	}
	lo, hi := 0.0, 1e6/mean
	for doublings := 0; ; doublings++ {
		ok, err := pass(hi)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		if doublings == 8 {
			return 0, 0, fmt.Errorf("model: tail within SLO even at %g req/Mcycle", hi)
		}
		lo, hi = hi, 2*hi
	}
	if lo == 0 {
		ok, err := pass(load.MinRate)
		if err != nil || !ok {
			return 0, hi - load.MinRate, err
		}
		lo = load.MinRate
	}
	for i := 0; i < capacityIters; i++ {
		mid := (lo + hi) / 2
		ok, err := pass(mid)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi - lo, nil
}
