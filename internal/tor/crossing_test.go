package tor

import (
	"fmt"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/obs"
	"sgxnet/internal/xcall"
)

// crossings is what the probe stream saw of the OR enclaves over a run
// of circuit GETs, next to what their meters charged.
type crossings struct {
	sgx    uint64            // SGX(U) the OR meters charged
	kinds  map[string]uint64 // probe counts by kind
	drains uint64            // ring drains, each SGXInstRingDrain
}

// decomposeGets deploys an SGX-OR network (1 authority, 2 relays, 1
// exit, seed 1), builds one circuit for a client with seed 11, then
// runs gets GETs with a fresh registry on every OR platform.
func decomposeGets(t *testing.T, xc *xcall.Config, gets int) crossings {
	t.Helper()
	tn, err := Deploy(NetworkConfig{
		Mode: ModeSGXORs, Authorities: 1, Relays: 2, Exits: 1, Seed: 1, Xcall: xc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
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
	circ, err := c.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	// Settle the build's charges before the probe goes on, so both sides
	// of the comparison cover the GETs alone.
	reg := obs.NewRegistry()
	for _, o := range tn.ORs {
		o.Enclave().Meter().SnapshotAndReset()
		o.Host.Platform().SetProbe(reg)
	}
	before := tn.XcallStats().Drains
	for i := 0; i < gets; i++ {
		req := fmt.Sprintf("req-%d", i)
		resp, err := circ.Get(WebHost+"|"+WebService, []byte(req))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "content:"+req {
			t.Fatalf("get %d: %q", i, resp)
		}
	}
	tn.FlushXcall()
	got := crossings{kinds: map[string]uint64{}, drains: tn.XcallStats().Drains - before}
	for _, o := range tn.ORs {
		got.sgx += o.Enclave().Meter().SnapshotAndReset().SGXU
	}
	// Read the probes now: closing the circuit sends a DESTROY cell, one
	// more ECALL, that the GETs did not make.
	for _, m := range reg.Snapshot() {
		got.kinds[m.Name] = m.Value
	}
	return got
}

// check requires the probe stream to explain every SGX(U) the OR
// enclaves charged: ECALL and OCALL crossings, packets crossing on
// their own, and ring drains.
func (c crossings) check(t *testing.T) {
	t.Helper()
	enter, exit := c.kinds[core.KindEENTER], c.kinds[core.KindEEXIT]
	resume, ocalls := c.kinds[core.KindERESUME], c.kinds[core.KindEnclaveOCall]
	packets := c.kinds[core.KindPacketCrossing]
	explained := enter + exit + resume + core.SGXInstIOPerPacket*packets + core.SGXInstRingDrain*c.drains
	if c.sgx != explained {
		t.Fatalf("OR enclaves charged %d SGX(U), probes explain %d (EENTER %d, EEXIT %d, ERESUME %d, packets %d, drains %d)",
			c.sgx, explained, enter, exit, resume, packets, c.drains)
	}
	if ocalls == 0 {
		t.Fatal("no enclave.ocall observed: the ORs' sends, dials and streams bypass Env.OCall")
	}
	// Every OCALL crossing is one EEXIT and one ERESUME, every ECALL one
	// EENTER and one EEXIT.
	if resume != ocalls || exit != enter+ocalls {
		t.Fatalf("crossing kinds disagree: EENTER %d, EEXIT %d, ERESUME %d, enclave.ocall %d", enter, exit, resume, ocalls)
	}
}

// TestSyncORCrossingsDecompose: on synchronous SGX ORs every SGX(U)
// of a GET is a crossing the probe stream reports. A GET is 10 cells
// in (EENTER/EEXIT each) and 10 cells out plus one exit stream (11
// OCALLs), and each cell out crosses once more as a packet: 62 SGX(U).
func TestSyncORCrossingsDecompose(t *testing.T) {
	const gets = 4
	c := decomposeGets(t, nil, gets)
	c.check(t)
	if c.drains != 0 {
		t.Fatalf("synchronous ORs drained %d ring batches", c.drains)
	}
	if c.sgx != 62*gets || c.kinds[core.KindEnclaveOCall] != 11*gets {
		t.Fatalf("%d GETs: %d SGX(U) and %d OCALLs, want %d and %d",
			gets, c.sgx, c.kinds[core.KindEnclaveOCall], 62*gets, 11*gets)
	}
}

// TestSwitchlessORCrossingsDecompose: on switchless ORs the rings'
// fallbacks are crossings like any other, and each drain adds its
// amortized crossing.
func TestSwitchlessORCrossingsDecompose(t *testing.T) {
	c := decomposeGets(t, &xcall.Config{Batch: 4, SpinBudget: 16}, 6)
	c.check(t)
	if c.drains == 0 {
		t.Fatal("switchless ORs drained no ring batch")
	}
}
