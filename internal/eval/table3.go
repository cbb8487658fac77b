package eval

import (
	"fmt"
	"io"

	"sgxnet/internal/topo"
	"sgxnet/internal/tor"

	"sgxnet/internal/sdnctl"
)

// Table 3: number of remote attestations required by each design. The
// paper gives formulas ("number of AS controllers", …); this experiment
// runs each design at a small scale and counts actual attestations,
// confirming the formulas hold in the implementation.

// Table3Row is one design's attestation count.
type Table3Row struct {
	Design   string
	Formula  string
	Scale    int // the formula's variable at this run
	Measured int
}

// Table3 runs each design and counts attestations. On the runner's
// trace, the SDN run lands on track "table3/sdn", the authority's exit
// re-scan on "table3/tor-authority", and middlebox provisioning on
// "table3/middlebox".
func (r *Runner) Table3() ([]Table3Row, error) {
	tr := r.trace
	var rows []Table3Row

	// Inter-domain routing: one attestation per AS controller.
	tp, err := topo.Random(topo.Config{N: 6, Seed: 42, PrefJitter: true})
	if err != nil {
		return nil, err
	}
	rep, err := sdnctl.RunSGX(tp, sdnctl.SGXConfig{Trace: tr, Track: "table3/sdn"})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table3Row{
		Design:   "Inter-domain routing",
		Formula:  "number of AS controllers",
		Scale:    6,
		Measured: rep.Attestations,
	})

	// Tor authority: one attestation per reachable exit node (admission
	// scan of the incremental SGX-OR deployment; we count a single
	// authority's attestations of exits only).
	tn, err := tor.Deploy(tor.NetworkConfig{Mode: tor.ModeSGXORs, Authorities: 3, Relays: 2, Exits: 3, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer tn.Close()
	exits := 0
	for _, o := range tn.ORs {
		if o.Exit {
			exits++
		}
	}
	// The admission scan attests all ORs; the paper's row is about the
	// authority's ongoing verification of reachable exits, so re-scan
	// just the exits.
	auth := tn.Auths[0]
	auth.SetTrace(tr, "table3/tor-authority")
	before := auth.Attestations
	for _, o := range tn.ORs {
		if o.Exit {
			if err := auth.AdmitByAttestation(o.Descriptor()); err != nil {
				return nil, err
			}
		}
	}
	rows = append(rows, Table3Row{
		Design:   "Tor network (Authority)",
		Formula:  "number of reachable exit nodes",
		Scale:    exits,
		Measured: auth.Attestations - before,
	})

	// Tor client: one attestation per authority when fetching consensus.
	client, err := tn.NewClient("t3-client", 1)
	if err != nil {
		return nil, err
	}
	if _, err := tn.Discover(client); err != nil {
		return nil, err
	}
	rows = append(rows, Table3Row{
		Design:   "Tor network (Client)",
		Formula:  "number of authority nodes",
		Scale:    len(tn.Auths),
		Measured: client.Attestations,
	})

	// Middlebox: one attestation per in-path middlebox (counted by the
	// middlebox tests as well; here by formula with scale 2).
	mbAttests, err := middleboxAttestations(tr, "table3/middlebox", 2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table3Row{
		Design:   "TLS-aware middlebox",
		Formula:  "number of in-path middleboxes",
		Scale:    2,
		Measured: mbAttests,
	})
	return rows, nil
}

// RenderTable3 prints the table.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: number of remote attestations for each design")
	tw := newTab(w)
	fmt.Fprintln(tw, "type\tformula (paper)\tscale\tmeasured")
	for _, r := range rows {
		ok := "✓"
		if r.Measured != r.Scale {
			ok = fmt.Sprintf("✗ (want %d)", r.Scale)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d %s\n", r.Design, r.Formula, r.Scale, r.Measured, ok)
	}
	tw.Flush()
}
