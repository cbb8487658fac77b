package tor

import (
	"fmt"
	"testing"

	"sgxnet/internal/xcall"
)

// xcallFetch deploys an SGX-OR network (optionally switchless), runs
// gets requests through one circuit, flushes the rings, and returns the
// relay-side SGX tally plus ring stats.
func xcallFetch(t *testing.T, xc *xcall.Config, gets int) (uint64, xcall.Stats) {
	t.Helper()
	tn, err := Deploy(NetworkConfig{
		Mode: ModeSGXORs, Authorities: 1, Relays: 2, Exits: 1, Seed: 1, Xcall: xc,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tn.NewClient("client", 11)
	if err != nil {
		t.Fatal(err)
	}
	consensus, err := tn.Discover(c)
	if err != nil {
		t.Fatal(err)
	}
	path, err := c.PickPath(consensus, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Measure steady-state relaying only: reset the OR meters after
	// circuit building so attestation and handshake crossings (which
	// stay synchronous by design) don't dilute the comparison.
	circ, err := c.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	for _, o := range tn.ORs {
		o.Enclave().Meter().SnapshotAndReset()
	}
	for i := 0; i < gets; i++ {
		resp, err := circ.Get(WebHost+"|"+WebService, []byte(fmt.Sprintf("req-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != fmt.Sprintf("content:req-%d", i) {
			t.Fatalf("get %d: %q", i, resp)
		}
	}
	tn.FlushXcall()
	return tn.RelaySGX(), tn.XcallStats()
}

// TestSwitchlessRelayingAmortizes pins the tentpole claim for the Tor
// app: at batch 16 the rings cut relay-side crossing instructions ≥2×
// versus per-cell EENTER/EEXIT, with the doorbell fallbacks reported.
func TestSwitchlessRelayingAmortizes(t *testing.T) {
	const gets = 12
	syncSGX, syncStats := xcallFetch(t, nil, gets)
	if syncStats != (xcall.Stats{}) {
		t.Fatalf("sync run produced ring stats: %+v", syncStats)
	}
	swlSGX, st := xcallFetch(t, &xcall.Config{Batch: 16, SpinBudget: 64}, gets)
	if swlSGX*2 > syncSGX {
		t.Fatalf("switchless %d SGX vs sync %d: less than 2× reduction", swlSGX, syncSGX)
	}
	if st.Calls == 0 || st.Drains == 0 {
		t.Fatalf("ring never went switchless: %+v", st)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("no fallbacks reported (doorbell wakes expected): %+v", st)
	}
}

// TestSwitchlessRelayingDeterministic pins that two identical switchless
// runs produce identical tallies and ring stats.
func TestSwitchlessRelayingDeterministic(t *testing.T) {
	xc := &xcall.Config{Batch: 4, SpinBudget: 16}
	sgx1, st1 := xcallFetch(t, xc, 6)
	sgx2, st2 := xcallFetch(t, xc, 6)
	if sgx1 != sgx2 || st1 != st2 {
		t.Fatalf("nondeterministic: %d/%+v vs %d/%+v", sgx1, st1, sgx2, st2)
	}
}
