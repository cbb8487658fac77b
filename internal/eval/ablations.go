package eval

import (
	"fmt"
	"io"

	"sgxnet/internal/chord"
	"sgxnet/internal/core"
	"sgxnet/internal/middlebox"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/smpc"
)

// Ablation experiments for the design choices DESIGN.md calls out.

// AblationSuite bundles the four deterministic ablation experiments.
type AblationSuite struct {
	Batch []BatchSweepPoint
	SMPC  *SMPCComparison
	DHT   []DHTSweepPoint
	Mbox  *MboxApproachComparison
}

// Ablations runs the four deterministic ablations as independent
// scenario runs on the pool. Each builds its own network and meters, so
// the merged suite is identical to running them back to back.
func (r *Runner) Ablations() (*AblationSuite, error) {
	s := &AblationSuite{}
	_, err := mapOrdered(r, 4, func(i int) (struct{}, error) {
		var err error
		switch i {
		case 0:
			s.Batch, err = AblationBatchSweep(r.trace, nil)
		case 1:
			s.SMPC, err = AblationSMPC()
		case 2:
			s.DHT, err = AblationDHTLookups(nil)
		case 3:
			s.Mbox, err = AblationMiddleboxApproaches(r.trace)
		}
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RenderAblations prints the whole suite in its canonical order, a blank
// line between sub-blocks.
func RenderAblations(w io.Writer, s *AblationSuite) {
	RenderBatchSweep(w, s.Batch)
	fmt.Fprintln(w)
	RenderSMPC(w, s.SMPC)
	fmt.Fprintln(w)
	RenderDHTSweep(w, s.DHT)
	fmt.Fprintln(w)
	RenderMboxApproaches(w, s.Mbox)
}

// BatchSweepPoint is one batch size of the I/O amortization ablation.
type BatchSweepPoint struct {
	Batch         int
	PerPacket     uint64 // normal instructions per packet
	PerPacketSGXU float64
}

// AblationBatchSweep quantifies how per-packet cost falls with batch
// size — the design lever behind the paper's "the cost can be amortized
// with batched I/O". Each batch size is a "send" span on the trace.
func AblationBatchSweep(tr *obs.Trace, batches []int) ([]BatchSweepPoint, error) {
	if len(batches) == 0 {
		batches = []int{1, 2, 5, 10, 25, 50, 100}
	}
	var pts []BatchSweepPoint
	for _, b := range batches {
		t, err := MeasureSend(tr, fmt.Sprintf("ablation/batch/n=%d", b), b, false)
		if err != nil {
			return nil, err
		}
		pts = append(pts, BatchSweepPoint{
			Batch:         b,
			PerPacket:     t.Normal / uint64(b),
			PerPacketSGXU: float64(t.SGXU) / float64(b),
		})
	}
	return pts, nil
}

// RenderBatchSweep prints the sweep.
func RenderBatchSweep(w io.Writer, pts []BatchSweepPoint) {
	fmt.Fprintln(w, "Ablation: in-enclave I/O batching (per-packet cost)")
	tw := newTab(w)
	fmt.Fprintln(tw, "batch\tnormal/pkt\tSGX(U)/pkt")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\n", p.Batch, p.PerPacket, p.PerPacketSGXU)
	}
	tw.Flush()
}

// SMPCComparison contrasts the SMPC baseline's cost for one private
// route comparison against the SGX enclave doing it directly — the §3.1
// motivation ("the computational complexity of SMPC is prohibitively
// expensive").
type SMPCComparison struct {
	SMPCTally   core.Tally
	ANDGates    int
	DirectCost  uint64 // instruction cost of the in-enclave comparison
	CostRatio   float64
	CyclesRatio float64
}

// AblationSMPC runs one private route comparison both ways.
func AblationSMPC() (*SMPCComparison, error) {
	n := netsim.New()
	defer n.Close()
	h0, err := n.AddHost("p0", core.PlatformConfig{})
	if err != nil {
		return nil, err
	}
	h1, err := n.AddHost("p1", core.PlatformConfig{})
	if err != nil {
		return nil, err
	}
	prefer, tally, err := smpc.RoutePrefer(n, h0, h1, 250, 2, 180, 1, 8)
	if err != nil {
		return nil, err
	}
	if !prefer {
		return nil, fmt.Errorf("eval: SMPC returned wrong preference")
	}
	c := smpc.RoutePreferCircuit(8, 8)
	// Direct in-enclave comparison: one candidate evaluation in the
	// controller's cost model.
	direct := uint64(6_000) // sdnctl.CostRouteEval
	return &SMPCComparison{
		SMPCTally:   tally,
		ANDGates:    c.ANDCount(),
		DirectCost:  direct,
		CostRatio:   float64(tally.Normal) / float64(direct),
		CyclesRatio: float64(tally.Cycles()) / (1.8 * float64(direct)),
	}, nil
}

// RenderSMPC prints the comparison.
func RenderSMPC(w io.Writer, c *SMPCComparison) {
	fmt.Fprintln(w, "Ablation: SMPC baseline vs SGX for one private route comparison")
	tw := newTab(w)
	fmt.Fprintln(tw, "approach\tnormal instructions\tnote")
	fmt.Fprintf(tw, "GMW SMPC (2 parties)\t%s\t%d AND gates, 1 OT each\n", fmtM(c.SMPCTally.Normal), c.ANDGates)
	fmt.Fprintf(tw, "SGX enclave (direct)\t%s\tone decision-process evaluation\n", fmtM(c.DirectCost))
	tw.Flush()
	fmt.Fprintf(w, "SMPC / SGX cost ratio ≈ %.0f× — the paper's \"prohibitively expensive\"\n", c.CostRatio)
}

// DHTSweepPoint is one ring size of the membership ablation.
type DHTSweepPoint struct {
	Nodes   int
	AvgHops float64
}

// AblationDHTLookups measures Chord lookup hops vs ring size — the
// scalability property that lets the fully SGX-enabled Tor drop its
// directory authorities (§3.2).
func AblationDHTLookups(sizes []int) ([]DHTSweepPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64, 128}
	}
	var pts []DHTSweepPoint
	for _, n := range sizes {
		ring := chord.NewRing()
		var nodes []*chord.Node
		for i := 0; i < n; i++ {
			nd, err := ring.Join(fmt.Sprintf("or-%d", i))
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, nd)
		}
		ring.StabilizeAll(3)
		total, count := 0, 0
		for i := 0; i < 200; i++ {
			_, hops, err := nodes[i%len(nodes)].FindSuccessor(chord.HashKey(fmt.Sprintf("probe-%d", i)))
			if err != nil {
				return nil, err
			}
			total += hops
			count++
		}
		pts = append(pts, DHTSweepPoint{Nodes: n, AvgHops: float64(total) / float64(count)})
	}
	return pts, nil
}

// RenderDHTSweep prints the sweep.
func RenderDHTSweep(w io.Writer, pts []DHTSweepPoint) {
	fmt.Fprintln(w, "Ablation: DHT membership lookups (directory-less Tor, §3.2)")
	tw := newTab(w)
	fmt.Fprintln(tw, "ORs\tavg lookup hops")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%.2f\n", p.Nodes, p.AvgHops)
	}
	tw.Flush()
}

// MboxApproachComparison contrasts first-contact key-provisioning cost
// between the SGX design (§3.3: remote attestation, then sealed key
// transfer) and an mcTLS-style design (key transfer to a public key,
// no attestation). The SGX design pays ~20× more instructions up front
// and in exchange binds key release to a measured build — the trade the
// paper proposes and mcTLS cannot make.
type MboxApproachComparison struct {
	SGXFirstContact   core.Tally // endpoint + middlebox enclaves, one attestation + provisioning
	MCTLSFirstContact core.Tally // endpoint + box, DH + provisioning
	MCTLSCached       core.Tally // a later session's provisioning
	Ratio             float64
}

// AblationMiddleboxApproaches measures both designs live, recording the
// SGX side's provisioning on the trace.
func AblationMiddleboxApproaches(tr *obs.Trace) (*MboxApproachComparison, error) {
	out := &MboxApproachComparison{}

	// SGX side: one middlebox, meters reset right before provisioning.
	rig, err := NewMboxRig(1)
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	rig.Endpoint.Meter().SnapshotAndReset()
	rig.Mboxes[0].Enclave().Meter().SnapshotAndReset()
	if _, err := rig.ProvisionAll(tr, "ablation/mbox"); err != nil {
		return nil, err
	}
	out.SGXFirstContact = rig.Endpoint.Meter().Snapshot().Add(rig.Mboxes[0].Enclave().Meter().Snapshot())

	// mcTLS side.
	m := core.NewMeter()
	box, err := middlebox.NewMCTLSBox(m, "mc0", DPIPatterns, false)
	if err != nil {
		return nil, err
	}
	ep := middlebox.NewMCTLSEndpoint("client")
	m.SnapshotAndReset()
	if err := ep.Provision(m, box, rig.Session.ExportKeys()); err != nil {
		return nil, err
	}
	out.MCTLSFirstContact = m.SnapshotAndReset()
	if err := ep.Provision(m, box, rig.Session.ExportKeys()); err != nil {
		return nil, err
	}
	out.MCTLSCached = m.Snapshot()
	out.Ratio = float64(out.SGXFirstContact.Normal) / float64(out.MCTLSFirstContact.Normal)
	return out, nil
}

// RenderMboxApproaches prints the comparison.
func RenderMboxApproaches(w io.Writer, c *MboxApproachComparison) {
	fmt.Fprintln(w, "Ablation: SGX vs mcTLS-style middlebox key provisioning (§3.3)")
	tw := newTab(w)
	fmt.Fprintln(tw, "design\tfirst contact (normal)\tcached session\ttrust in middlebox code")
	fmt.Fprintf(tw, "SGX attestation\t%s\t~key-seal only\tmeasured build, hardware-verified\n", fmtM(c.SGXFirstContact.Normal))
	fmt.Fprintf(tw, "mcTLS-style\t%s\t%s\tnone — any software behind the key\n",
		fmtM(c.MCTLSFirstContact.Normal), fmtM(c.MCTLSCached.Normal))
	tw.Flush()
	fmt.Fprintf(w, "SGX first-contact premium ≈ %.0f× — amortized over the connection lifetime (attestation runs once, §5)\n", c.Ratio)
}
