package eval

import (
	"testing"
)

// TestRATLSSweepShape checks the claim the sweep exists to demonstrate:
// every cell pays exactly one cold verification per distinct peer and
// admits everything else warm, the SGX gate adds its crossings on top,
// and at 10^6 clients the warm per-connection cost is under 5% of the
// cold cost — the amortization acceptance bar.
func TestRATLSSweepShape(t *testing.T) {
	pts, err := NewRunner(0).RATLSSweep()
	if err != nil {
		t.Fatal(err)
	}
	want := len(ratlsSweepGrid.modes) * len(ratlsSweepGrid.shards) * len(ratlsSweepGrid.clients)
	if len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	coldPerConn := map[string]uint64{}
	for _, p := range pts {
		if p.Cold != ratlsSweepPeers {
			t.Errorf("%s shards=%d clients=%d: %d cold verifications, want %d",
				p.Mode, p.Shards, p.Clients, p.Cold, ratlsSweepPeers)
		}
		if p.Warm != uint64(p.Clients-ratlsSweepPeers) {
			t.Errorf("%s shards=%d clients=%d: %d warm admissions, want %d",
				p.Mode, p.Shards, p.Clients, p.Warm, p.Clients-ratlsSweepPeers)
		}
		if p.HitRate <= 0 || p.HitRate >= 1 {
			t.Errorf("%s shards=%d clients=%d: hit rate %v out of range", p.Mode, p.Shards, p.Clients, p.HitRate)
		}
		if p.WarmPerConn >= p.ColdPerConn {
			t.Errorf("%s shards=%d clients=%d: warm/conn %d not cheaper than cold/conn %d",
				p.Mode, p.Shards, p.Clients, p.WarmPerConn, p.ColdPerConn)
		}
		if p.Clients == 1_000_000 && p.WarmOverCold > 0.05 {
			t.Errorf("%s shards=%d: warm/cold ratio %.4f breaches the 5%% bar at 10^6 clients",
				p.Mode, p.Shards, p.WarmOverCold)
		}
		coldPerConn[p.Mode] = p.ColdPerConn
	}
	if coldPerConn["sgx"] <= coldPerConn["native"] {
		t.Errorf("sgx cold/conn %d does not exceed native %d — the gate's crossings vanished",
			coldPerConn["sgx"], coldPerConn["native"])
	}
}

// TestRATLSSweepDeterministic checks the determinism contract: serial
// runs repeat exactly and an oversubscribed-parallel run matches, warm
// phase concurrency notwithstanding.
func TestRATLSSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep three times; slow under -short")
	}
	a, err := NewRunner(1).RATLSSweep()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(1).RATLSSweep()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRunner(8).RATLSSweep()
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
