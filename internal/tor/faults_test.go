package tor

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/netsim"
)

// Fault-tolerance tests: circuits are torn down and rebuilt around
// crashed relays, the directory quorum survives a dead authority, and
// onion round-trips still deliver the right bytes under seeded fault
// schedules.

func torRetryPolicy() attest.RetryPolicy {
	return attest.RetryPolicy{Attempts: 8, RecvTimeout: 400 * time.Millisecond,
		Backoff: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
}

func TestCircuitRebuildAfterRelayCrash(t *testing.T) {
	tn, err := Deploy(NetworkConfig{Mode: ModeSGXDirectory, Authorities: 1, Relays: 4, Exits: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tn.NewClient("c0", 7)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRetryPolicy(torRetryPolicy())
	consensus, err := tn.Discover(cl)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := cl.BuildCircuitRetry(consensus, 3, WebService)
	if err != nil {
		t.Fatal(err)
	}
	dest := WebHost + "|" + WebService
	if out, err := circ.Get(dest, []byte("ping")); err != nil || string(out) != "content:ping" {
		t.Fatalf("clean Get: %q, %v", out, err)
	}

	// A mid-path relay host dies. The circuit is unusable: the next
	// exchange must fail (by timeout or closure), not wedge.
	crashed := circ.Path()[1]
	tn.Net.Crash(crashed.Host)
	if _, err := circ.Get(dest, []byte("ping2")); err == nil {
		t.Fatal("Get through a crashed relay succeeded")
	}

	// Teardown/rebuild: the retry loop must route around the dead relay.
	circ2, err := cl.RebuildCircuit(circ, consensus, 3, WebService)
	if err != nil {
		t.Fatalf("rebuild after relay crash: %v", err)
	}
	for _, d := range circ2.Path() {
		if d.Name == crashed.Name {
			t.Fatalf("rebuilt circuit still uses crashed relay %s", crashed.Name)
		}
	}
	if out, err := circ2.Get(dest, []byte("pong")); err != nil || string(out) != "content:pong" {
		t.Fatalf("Get after rebuild: %q, %v", out, err)
	}
	if cl.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", cl.Rebuilds)
	}
	circ2.Close()
}

func TestFetchConsensusQuorumSurvivesAuthorityCrash(t *testing.T) {
	tn, err := Deploy(NetworkConfig{Mode: ModeSGXDirectory, Authorities: 3, Relays: 3, Exits: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tn.NewClient("c0", 3)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRetryPolicy(attest.RetryPolicy{Attempts: 3, RecvTimeout: 500 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: 2 * time.Millisecond})

	tn.Net.Crash(tn.Auths[1].Host.Name())
	consensus, err := cl.FetchConsensus(tn.AuthorityHosts())
	if err != nil {
		t.Fatalf("consensus with one dead authority: %v", err)
	}
	if len(consensus) != 5 {
		t.Fatalf("quorum consensus has %d descriptors, want 5", len(consensus))
	}
}

func TestFetchConsensusUnderDrops(t *testing.T) {
	tn, err := Deploy(NetworkConfig{Mode: ModeSGXDirectory, Authorities: 1, Relays: 3, Exits: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tn.NewClient("c0", 5)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRetryPolicy(torRetryPolicy())
	tn.Auths[0].SetRecvTimeout(400 * time.Millisecond)

	fs := netsim.NewFaultSchedule(1).
		AddLink(netsim.LinkFaults{From: "c0", To: "auth0", DropProb: 0.1}).
		AddLink(netsim.LinkFaults{From: "auth0", To: "c0", DropProb: 0.1})
	tn.Net.SetFaults(fs)

	consensus, err := cl.FetchConsensus(tn.AuthorityHosts())
	if err != nil {
		t.Fatalf("consensus under drops (replay: %s): %v", fs, err)
	}
	if len(consensus) != 5 {
		t.Fatalf("consensus has %d descriptors, want 5", len(consensus))
	}
	if st := fs.Stats(); st.Dropped == 0 {
		t.Logf("note: schedule never dropped (seed too gentle): %+v", st)
	}
	t.Logf("stats %+v retries=%d attestations=%d", fs.Stats(), cl.Retries, cl.Attestations)
}

// TestQuickOnionRoundTripUnderFaults is the property test: for random
// schedule seeds, an anonymous request through a freshly built circuit
// still returns exactly the destination's answer — onion wrap/unwrap
// survives latency, jitter, and loss end to end (with rebuilds allowed).
func TestQuickOnionRoundTripUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow under -short")
	}
	tn, err := Deploy(NetworkConfig{Mode: ModeBaseline, Authorities: 1, Relays: 4, Exits: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tn.NewClient("c0", 11)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRetryPolicy(torRetryPolicy())
	consensus, err := tn.Discover(cl)
	if err != nil {
		t.Fatal(err)
	}
	dest := WebHost + "|" + WebService

	prop := func(seed int64, req []byte) bool {
		if len(req) == 0 {
			req = []byte("x")
		}
		fs := netsim.NewFaultSchedule(seed).AddLink(netsim.LinkFaults{
			Latency:  100 * time.Microsecond,
			Jitter:   100 * time.Microsecond,
			DropProb: 0.01,
		})
		tn.Net.SetFaults(fs)
		defer tn.Net.SetFaults(nil)

		circ, err := cl.BuildCircuitRetry(consensus, 3, WebService)
		if err != nil {
			t.Logf("seed %d (replay: %s): build: %v", seed, fs, err)
			return false
		}
		defer func() { circ.Close() }()
		var out []byte
		for attempt := 0; ; attempt++ {
			out, err = circ.Get(dest, req)
			if err == nil {
				break
			}
			if attempt >= 7 {
				t.Logf("seed %d (replay: %s): get: %v", seed, fs, err)
				return false
			}
			if circ, err = cl.RebuildCircuit(circ, consensus, 3, WebService); err != nil {
				t.Logf("seed %d (replay: %s): rebuild: %v", seed, fs, err)
				return false
			}
		}
		want := append([]byte("content:"), req...)
		if !bytes.Equal(out, want) {
			t.Logf("seed %d: got %q want %q", seed, out, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(777))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCircuitRetryZeroPolicy: a policy that leaves every field
// zero takes DefaultRetryPolicy's values, attempt count included, so the
// client builds a working circuit instead of giving up after zero
// attempts without dialing. Discovery runs before the policy is set, so
// its attestation blocks rather than racing the default deadline while
// a cold process generates its first DH parameters.
func TestBuildCircuitRetryZeroPolicy(t *testing.T) {
	tn, err := Deploy(NetworkConfig{Mode: ModeSGXDirectory, Authorities: 1, Relays: 3, Exits: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	cl, err := tn.NewClient("c0", 9)
	if err != nil {
		t.Fatal(err)
	}
	consensus, err := tn.Discover(cl)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRetryPolicy(attest.RetryPolicy{})
	circ, err := cl.BuildCircuitRetry(consensus, 3, WebService)
	if err != nil {
		t.Fatalf("zero policy: %v", err)
	}
	defer circ.Close()
	if out, err := circ.Get(WebHost+"|"+WebService, []byte("ping")); err != nil || string(out) != "content:ping" {
		t.Fatalf("Get: %q, %v", out, err)
	}
}
