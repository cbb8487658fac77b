package eval

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/bgp"
	"sgxnet/internal/netsim"
	"sgxnet/internal/sdnctl"
	"sgxnet/internal/topo"
	"sgxnet/internal/tor"
)

// TestAblationFaultTolerance checks the sweep's invariants on a small,
// fast grid: the clean point always succeeds with no retries, the
// render mentions the metered overhead, and a lossy point never reports
// a cheaper-than-clean average (timeouts and retries only add cycles).
func TestAblationFaultTolerance(t *testing.T) {
	pts, err := NewRunner(0).faultTolerance([]float64{0, 0.10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	clean := pts[0]
	if clean.Successes != clean.Trials {
		t.Fatalf("clean point failed %d/%d attestations", clean.Trials-clean.Successes, clean.Trials)
	}
	if clean.Retries != 0 {
		t.Fatalf("clean point needed %d retries", clean.Retries)
	}
	if clean.Overhead != 1.0 {
		t.Fatalf("clean overhead = %v, want 1.0", clean.Overhead)
	}
	lossy := pts[1]
	if lossy.Successes > 0 && lossy.AvgCycles < clean.AvgCycles {
		t.Fatalf("lossy run cheaper than clean: %d < %d", lossy.AvgCycles, clean.AvgCycles)
	}
	t.Logf("clean=%dM cycles; at 10%% drop: %d/%d ok, %d retries, overhead %.2fx (stats %+v)",
		clean.AvgCycles/1e6, lossy.Successes, lossy.Trials, lossy.Retries, lossy.Overhead, lossy.Stats)

	var b bytes.Buffer
	RenderFaultTolerance(&b, pts)
	for _, want := range []string{"fault tolerance", "overhead", "retries"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("render missing %q:\n%s", want, b.String())
		}
	}
}

// TestSeededScheduleAcceptance is the end-to-end fault drill: seeded
// schedules combining latency, reordering, a partition window, and an
// authority crash, through which attestation, the SDN route push, and a
// Tor circuit build must all complete via the retry machinery.
func TestSeededScheduleAcceptance(t *testing.T) {
	pol := attest.RetryPolicy{Attempts: 8, RecvTimeout: 250 * time.Millisecond,
		Backoff: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
	base := netsim.LinkFaults{
		Latency:     200 * time.Microsecond,
		Jitter:      200 * time.Microsecond,
		ReorderProb: 0.05,
	}

	t.Run("attestation", func(t *testing.T) {
		rig, err := newAttestRig()
		if err != nil {
			t.Fatal(err)
		}
		rig.tShim.SetRecvTimeout(pol.RecvTimeout)
		l, err := rig.hostT.Listen("app")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go l.Serve(func(c *netsim.Conn) {
			defer c.Close()
			if _, err := attest.Respond(nil, "", rig.target, rig.tShim, rig.hostT, c); err != nil {
				return
			}
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		})
		// The partition window swallows the first protocol run outright;
		// the retry loop's own traffic advances the message clock past
		// the window, after which a fresh run goes through.
		fs := netsim.NewFaultSchedule(11).AddLink(base).AddPartition(netsim.Partition{
			A: []string{"challenger-host"}, B: []string{"target-host"}, FromMessage: 2, UntilMessage: 12,
		})
		rig.net.SetFaults(fs)
		defer rig.net.SetFaults(nil)
		dial := func() (*netsim.Conn, error) { return rig.hostC.Dial("target-host", "app") }
		conn, _, id, retries, err := attest.ChallengeRetry(
			nil, "", rig.challenger, rig.cShim, rig.cState, dial, true, pol)
		if err != nil {
			t.Fatalf("attestation under partition (replay: %s): %v", fs, err)
		}
		conn.Close()
		if id.MREnclave != rig.target.MREnclave() {
			t.Fatalf("attested wrong identity: %+v", id)
		}
		st := fs.Stats()
		if st.Partitioned == 0 {
			t.Fatalf("partition never intervened: %+v", st)
		}
		if retries == 0 {
			t.Fatalf("partition swallowed no attempt (stats %+v)", st)
		}
		t.Logf("attested after %d retries despite %+v", retries, st)
	})

	t.Run("sdn-route-push", func(t *testing.T) {
		tp, err := topo.Random(topo.Config{N: 4, Seed: CanonicalSeed, PrefJitter: true})
		if err != nil {
			t.Fatal(err)
		}
		in, out := base, base
		in.To = "controller"
		out.From = "controller"
		fs := netsim.NewFaultSchedule(13).AddLink(in).AddLink(out).
			AddPartition(netsim.Partition{A: []string{"as1"}, B: []string{"controller"}, FromMessage: 5, UntilMessage: 15})
		rep, err := sdnctl.RunSGX(tp, sdnctl.SGXConfig{Faults: fs, Retry: pol})
		if err != nil {
			t.Fatalf("SDN run under faults (replay: %s): %v", fs, err)
		}
		want, _ := bgp.ComputeAll(tp)
		if !bgp.RIBsEqual(rep.RIBs, want) {
			t.Fatalf("faulted SDN run diverged from clean computation (replay: %s)", fs)
		}
		for a := 0; a < 4; a++ {
			if len(rep.Installed[a]) != len(want[a]) {
				t.Fatalf("AS%d installed %d routes, want %d", a, len(rep.Installed[a]), len(want[a]))
			}
		}
		t.Logf("routes pushed despite %+v; retries=%d reattests=%d", fs.Stats(), rep.Retries, rep.Reattests)
	})

	t.Run("tor-circuit", func(t *testing.T) {
		tn, err := tor.Deploy(tor.NetworkConfig{Mode: tor.ModeSGXDirectory,
			Authorities: 3, Relays: 3, Exits: 2, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := tn.NewClient("c0", 19)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetRetryPolicy(pol)
		for _, a := range tn.Auths {
			a.SetRecvTimeout(pol.RecvTimeout)
		}
		// One authority dies on the schedule's first message; the
		// consensus quorum and the circuit build must not notice.
		fs := netsim.NewFaultSchedule(23).AddLink(base).
			AddCrash(netsim.HostCrash{Host: tn.Auths[1].Host.Name(), AtMessage: 1})
		tn.Net.SetFaults(fs)
		defer tn.Net.SetFaults(nil)

		consensus, err := cl.FetchConsensus(tn.AuthorityHosts())
		if err != nil {
			t.Fatalf("consensus under crash (replay: %s): %v", fs, err)
		}
		if len(consensus) != 5 {
			t.Fatalf("consensus has %d descriptors, want 5", len(consensus))
		}
		circ, err := cl.BuildCircuitRetry(consensus, 3, tor.WebService)
		if err != nil {
			t.Fatalf("circuit build under faults (replay: %s): %v", fs, err)
		}
		defer circ.Close()
		dest := tor.WebHost + "|" + tor.WebService
		out2, err := circ.Get(dest, []byte("drill"))
		if err != nil || string(out2) != "content:drill" {
			t.Fatalf("Get through circuit: %q, %v (replay: %s)", out2, err, fs)
		}
		st := fs.Stats()
		if st.Crashes == 0 {
			t.Fatalf("authority crash never fired: %+v", st)
		}
		t.Logf("circuit built despite %+v; retries=%d rebuilds=%d", st, cl.Retries, cl.Rebuilds)
	})
}
