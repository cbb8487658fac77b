// Interdomain: the §3.1 scenario the paper's intro motivates — ISPs want
// centralized SDN route computation without disclosing policies. Twelve
// ASes upload their private policies to an attested inter-domain
// controller, receive their routes, and verify a business promise
// through the predicate module, all without any policy leaving an
// enclave.
package main

import (
	"fmt"
	"log"

	"sgxnet/internal/bgp"
	"sgxnet/internal/sdnctl"
	"sgxnet/internal/topo"
)

func main() {
	log.SetFlags(0)

	// Twelve ASes with realistic business relationships.
	tp, err := topo.Random(topo.Config{N: 12, Seed: 2026, PrefJitter: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AS graph: %d ASes, %d links\n", tp.N(), tp.Links())

	report, err := sdnctl.RunSGX(tp, sdnctl.SGXConfig{After: func(_ *sdnctl.Controller, locals []*sdnctl.ASLocal) error {
		// AS2 has promised AS3 that its selected routes never transit
		// AS1 (say, a sanctioned network). Both register the identical
		// predicate; only then will the controller evaluate it.
		pred := sdnctl.Predicate{ID: "as2-avoids-as1", ASa: 2, ASb: 3, Kind: sdnctl.PredAvoids, Arg: 1}
		for _, asn := range []int{2, 3} {
			resp, err := locals[asn].Do(&sdnctl.Request{Register: &pred})
			if err != nil || resp.Err != "" {
				return fmt.Errorf("register by AS%d: %v %s", asn, err, resp.Err)
			}
		}
		resp, err := locals[3].Do(&sdnctl.Request{Verify: pred.ID})
		if err != nil || resp.Verdict == nil {
			return fmt.Errorf("verify: %v %+v", err, resp)
		}
		fmt.Printf("predicate %q → holds=%v (one bit disclosed, nothing else)\n",
			pred.ID, resp.Verdict.Holds)

		// An AS that is not a party cannot even ask.
		resp, err = locals[7].Do(&sdnctl.Request{Verify: pred.ID})
		if err != nil {
			return err
		}
		fmt.Printf("AS7 (non-party) verification attempt: %q\n", resp.Err)
		return nil
	}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("controller computed routes for all ASes: %d route updates in %d rounds\n",
		report.Stats.Updates, report.Stats.Rounds)
	fmt.Printf("%d remote attestations (Table 3: one per AS controller)\n", report.Attestations)
	fmt.Printf("inter-domain controller: %d normal + %d SGX(U) instructions (steady state)\n",
		report.InterDomain.Normal, report.InterDomain.SGXU)

	// Cross-check against the distributed path-vector oracle — the role
	// GNS3 plays in the paper's §5.
	oracle, _ := bgp.SimulateDistributed(tp, 99)
	if !bgp.RIBsEqual(report.RIBs, oracle) {
		log.Fatal("controller routes diverge from distributed BGP")
	}
	fmt.Println("controller output matches the distributed BGP simulation (GNS3-style check)")
	if !bgp.AllValleyFree(tp, report.RIBs) {
		log.Fatal("valley detected")
	}
	fmt.Println("all routes valley-free and loop-free")
}
