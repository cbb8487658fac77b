package series

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// splitmix is the test's seeded generator — stable across Go releases.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// obsRec is one recorded observation for replay in different orders.
type obsRec struct {
	name  string
	kind  Kind
	t, v  uint64
	gauge bool
}

// genObs builds a deterministic observation stream over a few series.
func genObs(seed uint64, n int) []obsRec {
	names := []string{"a/x", "a/y", "b/x", "c/deep/q"}
	out := make([]obsRec, n)
	for i := range out {
		r := splitmix(&seed)
		name := names[r%uint64(len(names))]
		gauge := strings.HasSuffix(name, "y")
		kind := Counter
		if gauge {
			kind = Gauge
		}
		out[i] = obsRec{
			name: name, kind: kind, gauge: gauge,
			t: splitmix(&seed) % (64 << 20),
			v: splitmix(&seed)%100 + 1,
		}
	}
	return out
}

func replay(set *Set, recs []obsRec) {
	for _, r := range recs {
		if r.gauge {
			set.get(r.name, Gauge).observe(set.WindowOf(r.t), r.t, r.v)
		} else {
			set.get(r.name, Counter).observe(set.WindowOf(r.t), r.t, r.v)
		}
	}
}

func csvBytes(t *testing.T, set *Set) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteCSV(&b, set); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestMergeOrderInvariance: splitting one observation stream across K
// sets and merging them in any order must reproduce the single-set
// export byte for byte — the property the -workers gates rest on.
func TestMergeOrderInvariance(t *testing.T) {
	recs := genObs(7, 4000)
	single := NewSet(1 << 20)
	replay(single, recs)
	want := csvBytes(t, single)

	for _, workers := range []int{2, 3, 8} {
		parts := make([]*Set, workers)
		for i := range parts {
			parts[i] = NewSet(1 << 20)
		}
		for i, r := range recs {
			replay(parts[i%workers], []obsRec{r})
		}
		// Merge forward and reverse; both must match the single set.
		fwd := NewSet(1 << 20)
		for _, p := range parts {
			fwd.Merge(p)
		}
		if got := csvBytes(t, fwd); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d forward merge diverges from single set", workers)
		}
		rev := NewSet(1 << 20)
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		if got := csvBytes(t, rev); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d reverse merge diverges from single set", workers)
		}
	}
}

// TestGaugeReduction pins the gauge rule: latest timestamp wins, ties
// break toward the larger value, regardless of observation order.
func TestGaugeReduction(t *testing.T) {
	mk := func(order [][2]uint64) uint64 {
		s := NewSet(100)
		g := s.get("g", Gauge)
		for _, tv := range order {
			g.observe(0, tv[0], tv[1])
		}
		return g.Value(0)
	}
	if v := mk([][2]uint64{{5, 9}, {7, 3}}); v != 3 {
		t.Fatalf("later timestamp must win: got %d", v)
	}
	if v := mk([][2]uint64{{7, 3}, {5, 9}}); v != 3 {
		t.Fatalf("later timestamp must win in reverse order: got %d", v)
	}
	if v := mk([][2]uint64{{7, 3}, {7, 8}}); v != 8 {
		t.Fatalf("tie must keep larger value: got %d", v)
	}
	if v := mk([][2]uint64{{7, 8}, {7, 3}}); v != 8 {
		t.Fatalf("tie must keep larger value in reverse order: got %d", v)
	}
}

// TestCSVRoundTrip: WriteCSV → ReadCSV → WriteCSV must be identity.
func TestCSVRoundTrip(t *testing.T) {
	set := NewSet(2 << 20)
	replay(set, genObs(11, 1000))
	first := csvBytes(t, set)
	back, err := ReadCSV(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if back.Window() != set.Window() {
		t.Fatalf("window lost: %d != %d", back.Window(), set.Window())
	}
	if got := csvBytes(t, back); !bytes.Equal(got, first) {
		t.Fatalf("round trip not identity:\n%s\nvs\n%s", first, got)
	}
}

// TestOpenMetricsShape: counters get _total, names are sanitized, the
// stream ends with # EOF, and the export is deterministic.
func TestOpenMetricsShape(t *testing.T) {
	set := NewSet(1000)
	set.Sampler("load/rho=0.95").CountAt("done.tls", 1500, 3)
	set.Sampler("load/rho=0.95").GaugeAt("queue.depth", 2500, 7)
	var b bytes.Buffer
	if err := WriteOpenMetrics(&b, set); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"load_rho_0_95_done_tls_total{window_start_cycles=\"1000\"} 3 0.000001000",
		"# TYPE load_rho_0_95_done_tls_total counter",
		"load_rho_0_95_queue_depth{window_start_cycles=\"2000\"} 7 0.000002000",
		"# TYPE load_rho_0_95_queue_depth gauge",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("OpenMetrics export missing %q:\n%s", want, out)
		}
	}
	var b2 bytes.Buffer
	if err := WriteOpenMetrics(&b2, set); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("OpenMetrics export not deterministic")
	}
}

// TestKindMismatchPanics: observing one name as two kinds is a
// programming error the set must refuse loudly.
func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	set := NewSet(0)
	sm := set.Sampler("t")
	sm.CountAt("x", 1, 1)
	sm.GaugeAt("x", 2, 2)
}

// TestNilSafety: nil sets, samplers, and clocks are silent no-ops.
func TestNilSafety(t *testing.T) {
	var set *Set
	sm := set.Sampler("x")
	if sm != nil {
		t.Fatal("nil set must hand out a nil sampler")
	}
	sm.CountAt("a", 1, 1)
	sm.GaugeAt("a", 1, 1)
	if sm.Set() != nil {
		t.Fatal("nil sampler must report a nil set")
	}
	var clk *Clock
	clk.Advance(10)
	if clk.Now() != 0 {
		t.Fatal("nil clock must read zero")
	}
	set.Merge(NewSet(0))
	if set.Len() != 0 || set.Names() != nil || set.Get("a") != nil {
		t.Fatal("nil set accessors must be empty")
	}
}

// TestClockMonotone: Advance keeps the max under concurrency.
func TestClockMonotone(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Advance(uint64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Now() != 7999 {
		t.Fatalf("clock = %d, want max advance 7999", c.Now())
	}
	c.Advance(5)
	if c.Now() != 7999 {
		t.Fatal("clock moved backwards")
	}
}

// TestSamplerPrefix: observations land under prefix + "/" + name and
// n=0 counter observations are dropped (no empty windows materialize).
func TestSamplerPrefix(t *testing.T) {
	set := NewSet(100)
	sm := set.Sampler("track/a")
	sm.CountAt("hits", 150, 2)
	sm.CountAt("hits", 160, 0)
	if s := set.Get("track/a/hits"); s == nil || s.Value(1) != 2 || s.Len() != 1 {
		t.Fatalf("prefixed counter wrong: %+v", set.Names())
	}
}

// TestBurnRate pins the multi-window rule on a hand-built pair: a
// transient burst trips the short leg only; a sustained burn trips
// both; recovery clears the alert.
func TestBurnRate(t *testing.T) {
	set := NewSet(1)
	done := set.get("t/done.s", Counter)
	viol := set.get("t/viol.s", Counter)
	// Windows 0..9: 10 done each. Violations: window 2 only (transient),
	// windows 6..9 all 10 (sustained full burn).
	for w := uint64(0); w < 10; w++ {
		done.observe(w, w, 10)
	}
	viol.observe(2, 2, 2) // 20% of one window: short burn 2/30/0.05 = 1.33
	for w := uint64(6); w < 10; w++ {
		viol.observe(w, w, 10)
	}
	rule := BurnRule{Budget: 0.05, Threshold: 4, Short: 2, Long: 8}
	pts := BurnRate(viol, done, rule)
	if len(pts) != 10 {
		t.Fatalf("want 10 burn points, got %d", len(pts))
	}
	byW := make(map[uint64]BurnPoint, len(pts))
	for _, p := range pts {
		byW[p.Window] = p
	}
	if byW[2].Alert {
		t.Fatal("transient window 2 must not fire the multi-window alert")
	}
	if byW[2].Short <= 0 {
		t.Fatal("transient window 2 must show short-leg burn")
	}
	if !byW[9].Alert {
		t.Fatalf("sustained burn must fire by window 9: %+v", byW[9])
	}
	// Sustained region: short leg = 10/10/0.05 = 20x from window 7 on;
	// long leg crosses 4x when trailing-8 violations reach 2 windows.
	if byW[9].Short < 19.9 || byW[9].Long < 4 {
		t.Fatalf("window 9 burn legs wrong: %+v", byW[9])
	}
}

// TestDetectGrowth: monotone gauges are flagged, oscillating and short
// series are not.
func TestDetectGrowth(t *testing.T) {
	set := NewSet(1)
	up := set.get("g/up", Gauge)
	for w := uint64(0); w < 6; w++ {
		up.observe(w, w, 10+w)
	}
	if g, ok := DetectGrowth(up, 4); !ok || g.First != 12 || g.Last != 15 {
		t.Fatalf("monotone gauge not detected: %+v ok=%v", g, ok)
	}
	osc := set.get("g/osc", Gauge)
	for w := uint64(0); w < 6; w++ {
		osc.observe(w, w, 10+(w%2)*5)
	}
	if _, ok := DetectGrowth(osc, 6); ok {
		t.Fatal("oscillating gauge flagged as growing")
	}
	flat := set.get("g/flat", Gauge)
	for w := uint64(0); w < 6; w++ {
		flat.observe(w, w, 10)
	}
	if _, ok := DetectGrowth(flat, 6); ok {
		t.Fatal("flat gauge flagged as growing")
	}
	short := set.get("g/short", Gauge)
	short.observe(0, 0, 1)
	short.observe(1, 1, 2)
	if _, ok := DetectGrowth(short, 8); ok {
		t.Fatal("two windows are not evidence of unbounded growth")
	}
}

// TestTopMovers: ranking is by delta desc then name, capped at n.
func TestTopMovers(t *testing.T) {
	set := NewSet(1)
	a := set.get("a", Counter)
	a.observe(0, 0, 10)
	a.observe(1, 1, 90) // delta 80
	b := set.get("b", Counter)
	b.observe(0, 0, 50)
	b.observe(1, 1, 10) // delta 40, downward
	c := set.get("c", Counter)
	c.observe(3, 3, 7) // single window: no move
	movers := TopMovers(set, 5)
	if len(movers) != 2 || movers[0].Series != "a" || movers[0].Delta != 80 ||
		movers[1].Series != "b" || movers[1].Delta != 40 {
		t.Fatalf("movers wrong: %+v", movers)
	}
	if got := TopMovers(set, 1); len(got) != 1 || got[0].Series != "a" {
		t.Fatalf("cap wrong: %+v", got)
	}
}

// TestBurnPairs: viol. names match their done. siblings; orphans don't.
func TestBurnPairs(t *testing.T) {
	set := NewSet(1)
	set.get("tr/done.x", Counter).observe(0, 0, 1)
	set.get("tr/viol.x", Counter).observe(0, 0, 1)
	set.get("tr/viol.orphan", Counter).observe(0, 0, 1)
	pairs := BurnPairs(set)
	if len(pairs) != 1 || pairs[0].Stream != "tr/x" {
		t.Fatalf("pairs wrong: %+v", pairs)
	}
	if pairs[0].Done.Name != "tr/done.x" || pairs[0].Viol.Name != "tr/viol.x" {
		t.Fatalf("pair members wrong: %+v", pairs[0])
	}
}
