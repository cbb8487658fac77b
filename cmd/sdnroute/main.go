// Command sdnroute runs the paper's §3.1 application end to end:
// SGX-enabled software-defined inter-domain routing over a random AS
// topology, with the native deployment as comparison and optional
// predicate verification.
//
// Usage:
//
//	sdnroute -as 30 -seed 42 -predicates
package main

import (
	"flag"
	"fmt"
	"log"

	"sgxnet/internal/bgp"
	"sgxnet/internal/sdnctl"
	"sgxnet/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdnroute: ")
	nAS := flag.Int("as", 30, "number of ASes")
	seed := flag.Int64("seed", 42, "topology seed")
	predicates := flag.Bool("predicates", false, "demonstrate predicate verification")
	nativeOnly := flag.Bool("native-only", false, "run only the non-SGX baseline")
	flag.Parse()

	tp, err := topo.Random(topo.Config{N: *nAS, Seed: *seed, PrefJitter: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d ASes, %d links (seed %d)\n", tp.N(), tp.Links(), *seed)

	// RunNative tears its deployment down before it returns. The SGX
	// deployment stays live from Deploy to Close, so the predicates run
	// on it after the measured phases.
	native, err := sdnctl.RunNative(tp, nil, "")
	if err != nil {
		log.Fatalf("native run: %v", err)
	}
	fmt.Printf("native:  inter-domain %d normal inst; AS-local avg %d; %d route updates in %d rounds\n",
		native.InterDomain.Normal, native.ASLocalAvg().Normal, native.Stats.Updates, native.Stats.Rounds)
	if !bgp.AllValleyFree(tp, native.RIBs) || !bgp.LoopFree(native.RIBs) {
		log.Fatal("native routes violate Gao–Rexford invariants")
	}
	if *nativeOnly {
		return
	}

	d, err := sdnctl.Deploy(tp, sdnctl.SGXConfig{})
	if err != nil {
		log.Fatalf("SGX run: %v", err)
	}
	sgx, err := d.Run()
	if err == nil && *predicates {
		err = runPredicates(d.Locals)
	}
	d.Close()
	if err != nil {
		log.Fatalf("SGX run: %v", err)
	}
	fmt.Printf("SGX:     inter-domain %d normal + %d SGX(U) inst; AS-local avg %d normal + %d SGX(U)\n",
		sgx.InterDomain.Normal, sgx.InterDomain.SGXU, sgx.ASLocalAvg().Normal, sgx.ASLocalAvg().SGXU)
	fmt.Printf("         %d remote attestations (one per AS controller — Table 3)\n", sgx.Attestations)
	fmt.Printf("overhead: inter-domain +%.0f%%, AS-local +%.0f%% (paper: +82%% / +69%%)\n",
		100*(float64(sgx.InterDomain.Normal)/float64(native.InterDomain.Normal)-1),
		100*(float64(sgx.ASLocalAvg().Normal)/float64(native.ASLocalAvg().Normal)-1))
	if !bgp.RIBsEqual(native.RIBs, sgx.RIBs) {
		log.Fatal("SGX and native deployments computed different routes")
	}
	fmt.Println("SGX and native routes identical; policies never left the enclaves in the SGX run")
}

// runPredicates registers and verifies one predicate on a live
// deployment: AS1 promises AS2 that its routes avoid AS0.
func runPredicates(locals []*sdnctl.ASLocal) error {
	pred := sdnctl.Predicate{ID: "avoid-0", ASa: 1, ASb: 2, Kind: sdnctl.PredAvoids, Arg: 0}
	for _, asn := range []int{1, 2} {
		resp, err := locals[asn].Do(&sdnctl.Request{Register: &pred})
		if err != nil || resp.Err != "" {
			return fmt.Errorf("register by AS%d: %v %s", asn, err, resp.Err)
		}
	}
	resp, err := locals[2].Do(&sdnctl.Request{Verify: "avoid-0"})
	if err != nil || resp.Verdict == nil {
		return fmt.Errorf("verify: %v %+v", err, resp)
	}
	fmt.Printf("predicate %q (AS1 promises AS2 to avoid AS0): holds=%v — verified inside the enclave, nothing else disclosed\n",
		resp.Verdict.PredicateID, resp.Verdict.Holds)
	return nil
}
