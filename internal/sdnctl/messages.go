// Package sdnctl implements the paper's §3.1 application: SGX-enabled
// software-defined inter-domain routing. AS-local controllers and a
// logically centralized inter-domain controller run inside enclaves;
// every AS remote-attests the controller's community-verified code before
// uploading its private policy over the attestation-bootstrapped secure
// channel; the controller computes BGP-style routes for all ASes and
// pushes each AS its own routes; and predicate verification (§3.1
// "Policy verification", in the spirit of SPIDeR) answers agreed-upon
// Boolean queries about routing promises without leaking anything else.
//
// A native (non-SGX) deployment of the same protocol is the baseline for
// Table 4 and Figure 3.
package sdnctl

import (
	"fmt"
	"sort"

	"sgxnet/internal/bgp"
	"sgxnet/internal/topo"
	"sgxnet/internal/wire"
)

// NeighborPolicy is one row of an AS's private policy: the neighbor, the
// business relationship, and the local preference.
type NeighborPolicy struct {
	Neighbor  int
	Rel       topo.Relationship
	LocalPref int
}

// PolicyMsg is an AS-local controller's policy and local-topology upload
// — the private information that must never leave the enclaves.
type PolicyMsg struct {
	ASN       int
	Neighbors []NeighborPolicy
}

// RoutesMsg is the controller's route push-back: only the recipient's own
// routes.
type RoutesMsg struct {
	ASN    int
	Routes []bgp.Route
}

// PredicateKind enumerates the verifiable promises.
type PredicateKind uint8

const (
	// PredPrefers: "is the route announced by A the most preferred by B
	// wherever A announces one?" — the paper's own example.
	PredPrefers PredicateKind = iota
	// PredAvoids: "do B's selected paths avoid transit AS X?"
	PredAvoids
	// PredExportsAll: "does A export to B every customer-learned route A
	// selects?" (a transit agreement).
	PredExportsAll
)

func (k PredicateKind) String() string {
	switch k {
	case PredPrefers:
		return "prefers"
	case PredAvoids:
		return "avoids"
	case PredExportsAll:
		return "exports-all"
	default:
		return fmt.Sprintf("PredicateKind(%d)", uint8(k))
	}
}

// Predicate is a Boolean condition two ASes agreed to verify. The
// controller evaluates it only after both parties registered an
// identical copy, so neither side can smuggle a broader query.
type Predicate struct {
	ID   string
	ASa  int // the AS that made the promise
	ASb  int // the AS the promise was made to
	Kind PredicateKind
	// Arg is the predicate parameter (e.g. the AS to avoid).
	Arg int
}

// Equal compares predicates field-wise.
func (p Predicate) Equal(o Predicate) bool { return p == o }

// Request/response envelope for the controller's command stream. Exactly
// one request field is set.
type Request struct {
	Policy    *PolicyMsg
	GetRoutes bool
	Register  *Predicate
	Verify    string // predicate ID
	From      int    // requesting ASN (bound to the channel at attestation)
}

// Response is the controller's reply.
type Response struct {
	Routes  *RoutesMsg
	Verdict *Verdict
	OK      bool
	Err     string

	// Degraded marks a response served while some ASes are disconnected
	// from the controller (crash, partition): the routes are the last
	// valid computation, not reflective of whatever the unreachable ASes
	// would upload next. Routes invalidated by a policy change are never
	// served, degraded or not.
	Degraded bool
}

// Verdict is a predicate-verification result: the Boolean outcome and
// nothing else, preserving policy privacy.
type Verdict struct {
	PredicateID string
	Holds       bool
}

func init() {
	wire.Pin(
		PolicyMsg{Neighbors: []NeighborPolicy{{}}},
		RoutesMsg{Routes: []bgp.Route{{}}},
		Request{Policy: &PolicyMsg{}, Register: &Predicate{}},
		Response{Routes: &RoutesMsg{}, Verdict: &Verdict{}},
	)
}

// BuildTopology assembles the global topology from uploaded policies,
// cross-checking that both sides of every link declared consistent
// relationships (an AS claiming a phantom or inconsistent link is
// rejected — the controller never trusts a single AS's word for a link).
func BuildTopology(n int, policies map[int]*PolicyMsg) (*topo.Topology, error) {
	if len(policies) != n {
		return nil, fmt.Errorf("sdnctl: have %d policies, want %d", len(policies), n)
	}
	t := topo.NewTopology(n)
	for asn, p := range policies {
		if p.ASN != asn {
			return nil, fmt.Errorf("sdnctl: policy ASN %d filed under %d", p.ASN, asn)
		}
		for _, nb := range p.Neighbors {
			other, ok := policies[nb.Neighbor]
			if !ok {
				return nil, fmt.Errorf("sdnctl: AS%d names unknown neighbor AS%d", asn, nb.Neighbor)
			}
			var reciprocal *NeighborPolicy
			for i := range other.Neighbors {
				if other.Neighbors[i].Neighbor == asn {
					reciprocal = &other.Neighbors[i]
					break
				}
			}
			if reciprocal == nil {
				return nil, fmt.Errorf("sdnctl: AS%d claims link to AS%d, which does not reciprocate", asn, nb.Neighbor)
			}
			if reciprocal.Rel != nb.Rel.Invert() {
				return nil, fmt.Errorf("sdnctl: AS%d and AS%d disagree on their relationship", asn, nb.Neighbor)
			}
			if asn < nb.Neighbor { // add each link once
				if err := t.AddLink(asn, nb.Neighbor, nb.Rel); err != nil {
					return nil, err
				}
			}
			t.SetLocalPref(asn, nb.Neighbor, nb.LocalPref)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// PoliciesFromTopology derives each AS's PolicyMsg from a topology — the
// workload generator for the evaluation.
func PoliciesFromTopology(t *topo.Topology) map[int]*PolicyMsg {
	out := make(map[int]*PolicyMsg, t.N())
	for a := 0; a < t.N(); a++ {
		p := &PolicyMsg{ASN: a}
		for _, nb := range t.Neighbors(a) {
			rel, _ := t.Rel(a, nb)
			p.Neighbors = append(p.Neighbors, NeighborPolicy{
				Neighbor:  nb,
				Rel:       rel,
				LocalPref: t.LocalPref(a, nb),
			})
		}
		out[a] = p
	}
	return out
}

// sortedDests returns a RIB's destinations in ascending order. The
// predicate scans below examine routes until a verdict — and charge
// CostPredicateEval per route examined — so the scan order must not
// depend on map iteration, or a failing predicate would charge a
// different instruction count every run.
func sortedDests(r bgp.RIB) []int {
	out := make([]int, 0, len(r))
	for d := range r {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// EvaluatePredicate checks a predicate against the computed routes and
// the uploaded policies. Returns the verdict and the number of routes
// examined (for cost accounting).
func EvaluatePredicate(p Predicate, t *topo.Topology, ribs map[int]bgp.RIB) (bool, int) {
	examined := 0
	switch p.Kind {
	case PredPrefers:
		// For every destination B routes to, if B has any route whose
		// next hop is A available... the controller knows only selected
		// routes; the promise holds if whenever B selected a route to a
		// destination that A also selected a route to (and would export
		// to B), B's selected route goes via A OR B's selected route has
		// strictly higher preference than A's announcement would get.
		rel, ok := t.Rel(p.ASb, p.ASa)
		if !ok {
			return false, 0
		}
		prefViaA := t.LocalPref(p.ASb, p.ASa)
		for _, dest := range sortedDests(ribs[p.ASb]) {
			rb := ribs[p.ASb][dest]
			if dest == p.ASb {
				continue
			}
			ra, ok := ribs[p.ASa][dest]
			if !ok {
				continue
			}
			// Would A export this route to B?
			if !bgp.CanExport(ra, rel.Invert()) || ra.Contains(p.ASb) {
				continue
			}
			examined++
			if rb.NextHop() == p.ASa {
				continue // promise satisfied directly
			}
			if rb.LocalPref < prefViaA {
				return false, examined // B preferred something it ranks lower
			}
		}
		return true, examined
	case PredAvoids:
		for _, dest := range sortedDests(ribs[p.ASb]) {
			examined++
			if ribs[p.ASb][dest].Contains(p.Arg) {
				return false, examined
			}
		}
		return true, examined
	case PredExportsAll:
		// A's customer-learned selected routes must be visible to B:
		// either B's route for that destination goes via A, or B holds a
		// route at least as short as the one A would announce — a
		// conservative check that never reveals A's actual paths.
		for _, dest := range sortedDests(ribs[p.ASa]) {
			ra := ribs[p.ASa][dest]
			if ra.LearnedRel != topo.RelCustomer && !ra.IsSelf() {
				continue
			}
			if ra.Contains(p.ASb) {
				continue
			}
			examined++
			rb, ok := ribs[p.ASb][dest]
			if !ok {
				return false, examined
			}
			if rb.NextHop() != p.ASa && rb.Len() > ra.Len()+1 {
				return false, examined
			}
		}
		return true, examined
	default:
		return false, 0
	}
}
