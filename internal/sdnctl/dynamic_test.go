package sdnctl

import (
	"testing"

	"sgxnet/internal/bgp"
	"sgxnet/internal/topo"
)

// removableLink finds a provider link whose removal keeps the topology
// connected: an AS with at least two providers, dropping one of them.
func removableLink(t *testing.T, tp *topo.Topology) (a, b int) {
	t.Helper()
	for as := 0; as < tp.N(); as++ {
		providers := 0
		var last int
		for _, nb := range tp.Neighbors(as) {
			if rel, _ := tp.Rel(as, nb); rel == topo.RelProvider {
				providers++
				last = nb
			}
		}
		if providers >= 2 {
			return as, last
		}
	}
	t.Skip("no multi-homed AS in this topology")
	return 0, 0
}

func dropNeighbor(p *PolicyMsg, nbr int) *PolicyMsg {
	out := &PolicyMsg{ASN: p.ASN}
	for _, n := range p.Neighbors {
		if n.Neighbor != nbr {
			out.Neighbors = append(out.Neighbors, n)
		}
	}
	return out
}

// TestDynamicLinkFailure drives the full reconfiguration loop: a link
// fails, both endpoint ASes reconfigure their enclave policies and
// re-upload, the controller recomputes, and everyone's refreshed routes
// avoid the dead link — matching a from-scratch computation on the
// reduced topology.
func TestDynamicLinkFailure(t *testing.T) {
	tp := canonicalTopo(t, 10)
	a, b := removableLink(t, tp)

	// Expected post-failure state: recompute on a rebuilt topology
	// without the a–b link.
	reduced := topo.NewTopology(tp.N())
	for x := 0; x < tp.N(); x++ {
		for _, nb := range tp.Neighbors(x) {
			if x < nb && !(x == a && nb == b) && !(x == b && nb == a) {
				rel, _ := tp.Rel(x, nb)
				if err := reduced.AddLink(x, nb, rel); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for x := 0; x < tp.N(); x++ {
		for _, nb := range reduced.Neighbors(x) {
			reduced.SetLocalPref(x, nb, tp.LocalPref(x, nb))
		}
	}
	if !reduced.Connected() {
		t.Skip("removal disconnects this topology")
	}
	wantRIBs, _ := bgp.ComputeAll(reduced)

	d, _ := deployed(t, tp, SGXConfig{})
	locals := d.Locals
	pols := PoliciesFromTopology(tp)
	// The link fails: both sides reconfigure and re-upload.
	if err := locals[a].Reconfigure(dropNeighbor(pols[a], b)); err != nil {
		t.Fatal(err)
	}
	if err := locals[b].Reconfigure(dropNeighbor(pols[b], a)); err != nil {
		t.Fatal(err)
	}
	// Routes were invalidated by the re-uploads: the controller must
	// refuse fetches until the next compute.
	if resp, err := locals[a].Do(&Request{GetRoutes: true}); err != nil {
		t.Fatal(err)
	} else if resp.Err == "" {
		t.Fatal("controller served stale routes after a policy change")
	}
	if err := d.Controller.Compute(); err != nil {
		t.Fatal(err)
	}
	for _, l := range locals {
		if err := l.Fetch(); err != nil {
			t.Fatal(err)
		}
		for _, r := range l.State.Installed() {
			want, ok := wantRIBs[l.ASN][r.Dest]
			if !ok || !want.Equal(r) {
				t.Fatalf("AS%d route to %d after failure: %v, want %v", l.ASN, r.Dest, r, want)
			}
		}
		if len(l.State.Installed()) != len(wantRIBs[l.ASN]) {
			t.Fatalf("AS%d has %d routes, want %d", l.ASN, len(l.State.Installed()), len(wantRIBs[l.ASN]))
		}
	}
}

// TestReconfigRejectsASNChange: an enclave refuses a reconfiguration
// that would let the operator impersonate another AS.
func TestReconfigRejectsASNChange(t *testing.T) {
	tp := canonicalTopo(t, 4)
	d, _ := deployed(t, tp, SGXConfig{})
	bad := &PolicyMsg{ASN: 2}
	if err := d.Locals[1].Reconfigure(bad); err == nil {
		t.Fatal("ASN change accepted by the enclave")
	}
}
