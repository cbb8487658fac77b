package eval

import (
	"testing"

	"sgxnet/internal/xcall"
)

// TestXcallSweepShape checks the claim the sweep exists to demonstrate:
// switchless calls recover at least 2× of the modeled crossing cycles
// at batch ≥16 for every application, with the ring's fallbacks
// reported, while batch 1 buys little (every drain still pays an
// amortized crossing).
func TestXcallSweepShape(t *testing.T) {
	pts, err := NewRunner(0).XcallSweep()
	if err != nil {
		t.Fatal(err)
	}
	perApp := 1 + len(xcallSweepGrid.batches)*len(xcallSweepGrid.spins)
	if want := len(xcallSweepGrid.apps) * perApp; len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		switch p.Mode {
		case "sync":
			if p.Speedup != 1.0 {
				t.Errorf("%s sync: speedup %.2f, want 1.00", p.App, p.Speedup)
			}
			if p.Stats != (xcall.Stats{}) {
				t.Errorf("%s sync: ring stats %+v, want zero", p.App, p.Stats)
			}
			if p.SGX.SGXU == 0 {
				t.Errorf("%s sync: no crossings measured", p.App)
			}
		case "switchless":
			if p.Stats.Calls == 0 && p.Stats.Fallbacks == 0 {
				t.Errorf("%s batch=%d spin=%d: ring never used: %+v", p.App, p.Batch, p.Spin, p.Stats)
			}
			if p.Stats.Fallbacks == 0 {
				t.Errorf("%s batch=%d spin=%d: no fallbacks reported", p.App, p.Batch, p.Spin)
			}
			if p.Batch >= 16 && p.Speedup < 2.0 {
				t.Errorf("%s batch=%d spin=%d: speedup %.2f < 2× acceptance bar",
					p.App, p.Batch, p.Spin, p.Speedup)
			}
		default:
			t.Errorf("unknown mode %q", p.Mode)
		}
	}
}

// TestXcallSweepDeterministic checks the determinism contract: serial
// runs repeat exactly and an oversubscribed-parallel run matches.
func TestXcallSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep three times; slow under -short")
	}
	a, err := NewRunner(1).XcallSweep()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(1).XcallSweep()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRunner(8).XcallSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d diverged between serial runs:\n%+v\n%+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Errorf("point %d diverged at -workers 8:\n%+v\n%+v", i, a[i], c[i])
		}
	}
}
