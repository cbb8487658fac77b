package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/eval/load"
)

// smallRound runs one untraced round of a request workload with n
// measured requests.
func smallRound(t *testing.T, workload string, seed int64, n int) *result {
	t.Helper()
	res, err := runRound(workload, options{workload: workload, seed: seed, requests: n})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return res
}

func TestRoundsServeCorrectly(t *testing.T) {
	for _, w := range []string{"tor-circuit", "sdn-fetch"} {
		res := smallRound(t, w, 7, 300)
		if res.failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w, res.failed, res.attempted)
		}
		if err := conform(res.e2e, endToEnd); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// The chain runs every hop on the caller's goroutine, so its bill is a
// pure function of the seed. (The tor and sdn rigs drain their meters
// while relays may still be charging; see README.md, Findings.)
func TestModelRepeatsForASeed(t *testing.T) {
	a, b := smallRound(t, "nf-chain", 7, 300), smallRound(t, "nf-chain", 7, 300)
	if !reflect.DeepEqual(a.model, b.model) {
		t.Errorf("model differs between runs of one seed:\n%v\n%v", a.model, b.model)
	}
	if a.failed != 0 {
		t.Errorf("%d of %d packets failed", a.failed, a.attempted)
	}
	if err := conform(a.e2e, endToEnd); err != nil {
		t.Error(err)
	}
}

// seededTallies are n tallies whose cycles vary by up to 4× around a
// million.
func seededTallies(n int, seed int64) []core.Tally {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]core.Tally, n)
	for i := range ts {
		ts[i] = core.Tally{Normal: 300_000 + uint64(rng.Intn(1_200_000))}
	}
	return ts
}

func TestSeedChangesSchedule(t *testing.T) {
	ts := seededTallies(2000, 1)
	a, err := model(ts, 0, 1, 0.5, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := model(ts, 0, 2, 0.5, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if a.P50 == b.P50 && a.Tail == b.Tail {
		t.Errorf("seeds 1 and 2 gave the same latencies on the same tallies: %+v", a)
	}
}

// fifoTail is an oracle for the modelled tail: latencies of the FIFO
// queue by the Lindley recursion over the same arrival schedule, then
// the nearest-rank quantile.
func fifoTail(t *testing.T, ts []core.Tally, seed uint64, rate float64) uint64 {
	t.Helper()
	arr, err := load.ArrivalSpec{Kind: load.Poisson, Rate: rate, N: len(ts), Seed: seed}.Times()
	if err != nil {
		t.Fatal(err)
	}
	lat := make([]uint64, len(ts))
	var free uint64
	for i, a := range arr {
		start := max(a, free)
		free = start + ts[i].Cycles()
		lat[i] = free - a
	}
	slices.Sort(lat)
	return lat[rankOf(tailQuantile, len(lat))-1]
}

func TestCapacityIsTheEdge(t *testing.T) {
	ts := seededTallies(5000, 3)
	const seed, slo = 11, 40_000_000
	rate, step, err := capacity(ts, 0, seed, slo)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || step <= 0 {
		t.Fatalf("capacity %g, step %g", rate, step)
	}
	if tail := fifoTail(t, ts, seed, rate); tail > slo {
		t.Errorf("at the capacity %g req/Mcycle the tail is %d > SLO %d", rate, tail, slo)
	}
	if tail := fifoTail(t, ts, seed, rate+step); tail <= slo {
		t.Errorf("one step higher (%g) the tail is %d ≤ SLO %d", rate+step, tail, slo)
	}
}

func TestPercentilesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 10, 999, 1000, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50)) // ties on purpose
		}
		qs := []float64{0, 0.1, 0.5, 0.9, 0.99, tailQuantile, 1}
		got := percentiles(slices.Clone(xs), qs...)
		for i, q := range qs {
			// The smallest sample with at least ⌈q·n⌉ samples at or
			// below it (at least one).
			want := -1.0
			for _, c := range xs {
				below := 0
				for _, x := range xs {
					if x <= c {
						below++
					}
				}
				if float64(below) >= q*float64(n) && below >= 1 && (want < 0 || c < want) {
					want = c
				}
			}
			if got[i] != want {
				t.Errorf("n=%d q=%g: got %g, want %g", n, q, got[i], want)
			}
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end:\nBENCHMARK.json %v\nbench          %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer:\nBENCHMARK.json %v\nbench          %v", layers, perLayer)
	}
}

// wrongReply is an app whose request 3 returns a wrong reply.
type wrongReply struct{}

func (wrongReply) Serve(i int) (core.Tally, error) {
	if i == warmupRequests+3 {
		return core.Tally{Normal: 1000}, errors.New(`reply "content:req-x", want "content:req-3"`)
	}
	return core.Tally{Normal: 1000}, nil
}
func (wrongReply) Flush() (core.Tally, error) { return core.Tally{}, nil }
func (wrongReply) Check() (int, error)        { return 0, nil }
func (wrongReply) Diagnostics() []value       { return nil }
func (wrongReply) Close()                     {}

func TestWrongReplyCountsAsFailure(t *testing.T) {
	p, err := measure(wrongReply{}, 10, nil)
	if err != nil {
		t.Fatalf("a wrong reply ended the run: %v", err)
	}
	if p.n() != 10 || p.failed != 1 {
		t.Fatalf("served %d with %d failed, want 10 with 1", p.n(), p.failed)
	}
	// With one failed request in ten, p99.9 misses the SLO at any rate.
	sr, err := replay(p.tallies, 1, 0.001, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if meetsSLO(sr, p.failed, p.n()) {
		t.Error("a failed request did not count as an SLO miss")
	}
}
