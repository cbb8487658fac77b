package sdnctl

import (
	"strings"
	"testing"

	"sgxnet/internal/bgp"
	"sgxnet/internal/topo"
)

func canonicalTopo(t testing.TB, n int) *topo.Topology {
	t.Helper()
	tp, err := topo.Random(topo.Config{N: n, Seed: 42, PrefJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestPoliciesRoundTripThroughBuildTopology(t *testing.T) {
	tp := canonicalTopo(t, 12)
	pols := PoliciesFromTopology(tp)
	rebuilt, err := BuildTopology(12, pols)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Links() != tp.Links() {
		t.Fatalf("links %d != %d", rebuilt.Links(), tp.Links())
	}
	for a := 0; a < 12; a++ {
		for _, nb := range tp.Neighbors(a) {
			r1, _ := tp.Rel(a, nb)
			r2, ok := rebuilt.Rel(a, nb)
			if !ok || r1 != r2 {
				t.Fatalf("AS%d–AS%d relationship lost", a, nb)
			}
			if tp.LocalPref(a, nb) != rebuilt.LocalPref(a, nb) {
				t.Fatalf("AS%d pref toward %d lost", a, nb)
			}
		}
	}
}

func TestBuildTopologyRejectsInconsistentClaims(t *testing.T) {
	tp := canonicalTopo(t, 5)
	pols := PoliciesFromTopology(tp)
	// Missing policy.
	if _, err := BuildTopology(5, map[int]*PolicyMsg{0: pols[0]}); err == nil {
		t.Fatal("short policy set accepted")
	}
	// Phantom link: AS0 claims a neighbor that doesn't reciprocate.
	bad := *pols[0]
	bad.Neighbors = append(append([]NeighborPolicy{}, bad.Neighbors...),
		NeighborPolicy{Neighbor: 4, Rel: topo.RelCustomer, LocalPref: 100})
	if _, hasLink := tp.Rel(0, 4); hasLink {
		t.Skip("seed produced a 0–4 link; pick another pair")
	}
	mod := map[int]*PolicyMsg{}
	for k, v := range pols {
		mod[k] = v
	}
	mod[0] = &bad
	if _, err := BuildTopology(5, mod); err == nil {
		t.Fatal("phantom link accepted")
	}
	// Relationship disagreement.
	mod2 := map[int]*PolicyMsg{}
	for k, v := range pols {
		cp := *v
		cp.Neighbors = append([]NeighborPolicy{}, v.Neighbors...)
		mod2[k] = &cp
	}
	n0 := mod2[0].Neighbors[0].Neighbor
	mod2[0].Neighbors[0].Rel = topo.RelPeer
	// unless it was already peer, flip it
	if orig, _ := tp.Rel(0, n0); orig == topo.RelPeer {
		mod2[0].Neighbors[0].Rel = topo.RelCustomer
	}
	if _, err := BuildTopology(5, mod2); err == nil {
		t.Fatal("inconsistent relationship accepted")
	}
}

func TestNativeDeploymentComputesCorrectRoutes(t *testing.T) {
	tp := canonicalTopo(t, 10)
	rep, err := RunNative(tp, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bgp.ComputeAll(tp)
	if !bgp.RIBsEqual(rep.RIBs, want) {
		t.Fatal("controller routes differ from direct computation")
	}
	for asn, routes := range rep.Installed {
		if len(routes) != len(want[asn]) {
			t.Fatalf("AS%d installed %d routes, want %d", asn, len(routes), len(want[asn]))
		}
	}
	if rep.Attestations != 0 {
		t.Fatal("native run performed attestations")
	}
}

func TestSGXDeploymentEndToEnd(t *testing.T) {
	tp := canonicalTopo(t, 8)
	rep, err := RunSGX(tp, SGXConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bgp.ComputeAll(tp)
	if !bgp.RIBsEqual(rep.RIBs, want) {
		t.Fatal("SGX controller routes differ from direct computation")
	}
	if rep.Attestations != 8 {
		t.Fatalf("attestations = %d, want 8 (one per AS controller, Table 3)", rep.Attestations)
	}
	for asn, routes := range rep.Installed {
		if len(routes) != len(want[asn]) {
			t.Fatalf("AS%d installed %d routes, want %d", asn, len(routes), len(want[asn]))
		}
		for _, r := range routes {
			if got := want[asn][r.Dest]; !got.Equal(r) {
				t.Fatalf("AS%d route to %d differs: %v vs %v", asn, r.Dest, r, got)
			}
		}
	}
}

// TestTable4 reproduces Table 4 on the paper's workload: a 30-AS random
// topology with business relationships. Normal-instruction totals must
// land within 5% of the paper's columns and SGX(U) counts within 10%.
func TestTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("30-AS deployment is slow in -short mode")
	}
	tp := canonicalTopo(t, 30)
	native, err := RunNative(tp, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	sgx, err := RunSGX(tp, SGXConfig{})
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, want, pctTol uint64) {
		lo := want * (100 - pctTol) / 100
		hi := want * (100 + pctTol) / 100
		if got < lo || got > hi {
			t.Errorf("%s = %d, want %d ±%d%%", name, got, want, pctTol)
		}
	}
	within("native inter-domain normal", native.InterDomain.Normal, 74_000_000, 5)
	within("SGX inter-domain normal", sgx.InterDomain.Normal, 135_000_000, 5)
	within("native AS-local normal", native.ASLocalAvg().Normal, 13_000_000, 8)
	within("SGX AS-local normal", sgx.ASLocalAvg().Normal, 24_000_000, 12)
	within("SGX inter-domain SGX(U)", sgx.InterDomain.SGXU, 1448, 10)
	within("SGX AS-local SGX(U)", sgx.ASLocalAvg().SGXU, 42, 10)
	if native.InterDomain.SGXU != 0 {
		t.Error("native controller executed SGX instructions")
	}
	// Overheads: +82% / +69% in the paper.
	ratio := float64(sgx.InterDomain.Normal) / float64(native.InterDomain.Normal)
	if ratio < 1.70 || ratio > 1.95 {
		t.Errorf("inter-domain overhead ratio = %.2f, paper reports 1.82", ratio)
	}
	ratioAS := float64(sgx.ASLocalAvg().Normal) / float64(native.ASLocalAvg().Normal)
	if ratioAS < 1.55 || ratioAS > 1.85 {
		t.Errorf("AS-local overhead ratio = %.2f, paper reports 1.69", ratioAS)
	}
}

func TestPredicateVerificationFlow(t *testing.T) {
	tp := canonicalTopo(t, 6)
	// Deploy SGX run manually to keep the locals alive for predicates.
	rep, err := RunSGX(tp, SGXConfig{After: func(_ *Controller, locals []*ASLocal) error {
		// AS1 promises AS2 its routes avoid AS0; both register, AS2 verifies.
		pred := Predicate{ID: "avoid-0", ASa: 1, ASb: 2, Kind: PredAvoids, Arg: 0}
		if resp, err := locals[1].Do(&Request{Register: &pred}); err != nil || resp.Err != "" {
			t.Fatalf("register by AS1: %v %s", err, resp.Err)
		}
		// Verification before both parties agreed must fail.
		if resp, err := locals[2].Do(&Request{Verify: "avoid-0"}); err != nil {
			t.Fatal(err)
		} else if resp.Err == "" {
			t.Fatal("verification allowed before both parties registered")
		}
		if resp, err := locals[2].Do(&Request{Register: &pred}); err != nil || resp.Err != "" {
			t.Fatalf("register by AS2: %v %s", err, resp.Err)
		}
		resp, err := locals[2].Do(&Request{Verify: "avoid-0"})
		if err != nil || resp.Verdict == nil {
			t.Fatalf("verify: %v %+v", err, resp)
		}
		// Cross-check the verdict against ground truth.
		ribs, _ := bgp.ComputeAll(tp)
		want, _ := EvaluatePredicate(pred, tp, ribs)
		if resp.Verdict.Holds != want {
			t.Fatalf("verdict %v, ground truth %v", resp.Verdict.Holds, want)
		}
		// A non-party cannot verify.
		if resp, err := locals[3].Do(&Request{Verify: "avoid-0"}); err != nil {
			t.Fatal(err)
		} else if resp.Err == "" {
			t.Fatal("non-party verified a predicate")
		}
		// A non-party cannot register someone else's predicate.
		if resp, err := locals[3].Do(&Request{Register: &pred}); err != nil {
			t.Fatal(err)
		} else if resp.Err == "" {
			t.Fatal("non-party registered a predicate")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil report")
	}
}

func TestEvaluatePredicateKinds(t *testing.T) {
	tp := canonicalTopo(t, 10)
	ribs, _ := bgp.ComputeAll(tp)
	// Avoids: pick an AS on some path → must be false; pick an AS on no
	// path of AS b → true.
	onPath := -1
	var holder int
	for h, rib := range ribs {
		for _, r := range rib {
			if len(r.Path) >= 2 {
				holder, onPath = h, r.Path[0]
				break
			}
		}
		if onPath >= 0 {
			break
		}
	}
	if onPath < 0 {
		t.Skip("no multi-hop path in topology")
	}
	holds, examined := EvaluatePredicate(Predicate{Kind: PredAvoids, ASb: holder, Arg: onPath}, tp, ribs)
	if holds {
		t.Fatal("avoids-predicate true despite transit")
	}
	if examined == 0 {
		t.Fatal("no routes examined")
	}
	// Prefers between directly linked ASes at least runs and is
	// consistent under swap of ground truth recomputation.
	a := 0
	bs := tp.Neighbors(0)
	if len(bs) == 0 {
		t.Fatal("AS0 has no neighbors")
	}
	h1, _ := EvaluatePredicate(Predicate{Kind: PredPrefers, ASa: a, ASb: bs[0]}, tp, ribs)
	h2, _ := EvaluatePredicate(Predicate{Kind: PredPrefers, ASa: a, ASb: bs[0]}, tp, ribs)
	if h1 != h2 {
		t.Fatal("prefers-predicate not deterministic")
	}
	// Unknown kind.
	if holds, _ := EvaluatePredicate(Predicate{Kind: PredicateKind(99)}, tp, ribs); holds {
		t.Fatal("unknown predicate kind held")
	}
	if PredPrefers.String() != "prefers" || PredAvoids.String() != "avoids" ||
		PredExportsAll.String() != "exports-all" || !strings.Contains(PredicateKind(9).String(), "9") {
		t.Fatal("kind strings wrong")
	}
}

func TestASNBindingEnforced(t *testing.T) {
	tp := canonicalTopo(t, 4)
	_, err := RunSGX(tp, SGXConfig{After: func(_ *Controller, locals []*ASLocal) error {
		// AS3 tries to fetch AS1's routes by lying about From. The
		// enclave-side request path always stamps the true ASN, so we
		// simulate a compromised AS-local *host* instead: it cannot forge
		// sealed messages at all (no channel key). Here we check the
		// controller-side guard directly through the generic path.
		resp, err := locals[3].Do(&Request{GetRoutes: true})
		if err != nil || resp.Routes == nil {
			t.Fatalf("legit fetch failed: %v %+v", err, resp)
		}
		if resp.Routes.ASN != 3 {
			t.Fatalf("controller returned AS%d's routes to AS3", resp.Routes.ASN)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChargeScaling(t *testing.T) {
	// Figure 3's underlying property: controller work grows with N for
	// both deployments, and the SGX run stays consistently above native.
	var prevNative, prevSGX uint64
	for _, n := range []int{5, 15, 25} {
		tp := canonicalTopo(t, n)
		nat, err := RunNative(tp, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		sgx, err := RunSGX(tp, SGXConfig{})
		if err != nil {
			t.Fatal(err)
		}
		natC := nat.InterDomain.Cycles()
		sgxC := sgx.InterDomain.Cycles()
		if natC <= prevNative || sgxC <= prevSGX {
			t.Fatalf("n=%d: cycles did not grow (native %d, sgx %d)", n, natC, sgxC)
		}
		if sgxC <= natC {
			t.Fatalf("n=%d: SGX not above native", n)
		}
		prevNative, prevSGX = natC, sgxC
	}
}
