package sdnctl

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/bgp"
	"sgxnet/internal/netsim"
)

// Fault-tolerance tests for the SGX deployment: the fault schedule
// disturbs every link touching the controller (attestation, policy
// upload, and route push-back all cross it), and the retry policy must
// carry the run to the same routing state a clean run produces.

// ctlFaults disturbs both directions of every controller link: latency
// with jitter, message loss, and occasional reordering. Corruption is
// deliberately absent here — the channel MACs turn a flipped bit into a
// permanent authentication failure, which is the netsim/attest layers'
// test subject, not the deployment driver's.
func ctlFaults(seed int64, drop float64) *netsim.FaultSchedule {
	f := netsim.LinkFaults{
		Latency:     200 * time.Microsecond,
		Jitter:      200 * time.Microsecond,
		DropProb:    drop,
		ReorderProb: 0.02,
	}
	in, out := f, f
	in.To = "controller"
	out.From = "controller"
	return netsim.NewFaultSchedule(seed).AddLink(in).AddLink(out)
}

func faultPolicy() attest.RetryPolicy {
	return attest.RetryPolicy{Attempts: 10, RecvTimeout: 150 * time.Millisecond,
		Backoff: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
}

// waitBound blocks until the controller's live-channel count reaches
// want — the release of a dead channel races the test's next request.
func waitBound(t *testing.T, ctl *Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for ctl.State.BoundASes() != want {
		if time.Now().After(deadline) {
			t.Fatalf("controller sees %d bound ASes, want %d", ctl.State.BoundASes(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunSGXFaultedConvergesUnderFaults(t *testing.T) {
	tp := canonicalTopo(t, 5)
	fs := ctlFaults(7, 0.05)
	rep, err := RunSGX(tp, SGXConfig{Faults: fs, Retry: faultPolicy()})
	if err != nil {
		t.Fatalf("faulted run (replay: %s): %v", fs, err)
	}
	want, _ := bgp.ComputeAll(tp)
	if !bgp.RIBsEqual(rep.RIBs, want) {
		t.Fatalf("faulted run diverged from clean computation (replay: %s)", fs)
	}
	for a := 0; a < 5; a++ {
		if len(rep.Installed[a]) != len(want[a]) {
			t.Fatalf("AS%d installed %d routes, want %d", a, len(rep.Installed[a]), len(want[a]))
		}
	}
	st := fs.Stats()
	if st.Delayed == 0 {
		t.Fatalf("schedule never intervened: %+v", st)
	}
	t.Logf("converged despite %+v; retries=%d reattests=%d", st, rep.Retries, rep.Reattests)
}

func TestReattestAfterChannelLoss(t *testing.T) {
	tp := canonicalTopo(t, 4)
	d, _ := deployed(t, tp, SGXConfig{})
	ctl, asl := d.Controller, d.Locals[0]
	asl.SetRetryPolicy(faultPolicy())
	// Kill the attested channel under the AS; the next operation must
	// re-attest the controller and then succeed transparently.
	asl.conn.Close()
	waitBound(t, ctl, 3)
	resp, err := asl.Do(&Request{GetRoutes: true})
	if err != nil {
		t.Fatalf("Do after channel loss: %v", err)
	}
	if resp.Err != "" || resp.Routes == nil {
		t.Fatalf("bad response after re-attest: %+v", resp)
	}
	if asl.Reattests != 1 {
		t.Fatalf("Reattests = %d, want 1", asl.Reattests)
	}
	if resp.Degraded {
		t.Fatal("fully reconnected deployment reported degraded")
	}
	// The re-established channel holds a session the controller knows.
	if ctl.State.BoundASes() != 4 {
		t.Fatalf("BoundASes = %d after re-attest, want 4", ctl.State.BoundASes())
	}
}

func TestDegradedRouteServingOnASLoss(t *testing.T) {
	tp := canonicalTopo(t, 4)
	pol := faultPolicy()
	d, _ := deployed(t, tp, SGXConfig{})
	locals := d.Locals
	net := locals[0].Host.Network()

	// An AS host crashes: its channel dies, the controller releases the
	// binding, and the survivors keep being served — flagged degraded.
	net.Crash("as3")
	waitBound(t, d.Controller, 3)
	resp, err := locals[0].Do(&Request{GetRoutes: true})
	if err != nil {
		t.Fatalf("Do during outage: %v", err)
	}
	if resp.Err != "" || resp.Routes == nil {
		t.Fatalf("survivor was refused service during outage: %+v", resp)
	}
	if !resp.Degraded {
		t.Fatal("response during an AS outage not flagged degraded")
	}

	// The crashed AS comes back, re-attests, and the flag clears.
	net.Restart("as3")
	locals[3].SetRetryPolicy(pol)
	if err := locals[3].Connect("controller"); err != nil {
		t.Fatalf("reconnect after restart: %v", err)
	}
	back, err := locals[3].Do(&Request{GetRoutes: true})
	if err != nil {
		t.Fatalf("Do after restart: %v", err)
	}
	if back.Err != "" || back.Routes == nil {
		t.Fatalf("restarted AS not served: %+v", back)
	}
	resp, err = locals[0].Do(&Request{GetRoutes: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatal("degraded flag stuck after full recovery")
	}
}

// TestQuickFaultedEquivalence is the property test: for random fault
// schedules, the SGX deployment still converges to the same RIBs as the
// distributed path-vector oracle — the paper's centralized-vs-distributed
// equivalence, now quantified over network disturbance.
func TestQuickFaultedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow under -short")
	}
	tp := canonicalTopo(t, 4)
	oracle, _ := bgp.SimulateDistributed(tp, 99)
	prop := func(schedSeed int64) bool {
		fs := ctlFaults(schedSeed, 0.04)
		rep, err := RunSGX(tp, SGXConfig{Faults: fs, Retry: faultPolicy()})
		if err != nil {
			t.Logf("seed %d (replay: %s): %v", schedSeed, fs, err)
			return false
		}
		if !bgp.RIBsEqual(rep.RIBs, oracle) {
			t.Logf("seed %d: faulted centralized RIBs != distributed oracle", schedSeed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(4242))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
