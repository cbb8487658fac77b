// Package sgxnet is a Go reproduction of "A First Step Towards
// Leveraging Commodity Trusted Execution Environments for Network
// Applications" (HotNets 2015): a software SGX platform (enclaves, EPC,
// measurement, local and remote attestation with a quoting enclave, and
// an OpenSGX-style instruction-accounting model), plus the paper's three
// network applications built on it —
//
//   - SDN-based inter-domain routing with policy privacy and predicate
//     verification (§3.1), against a native baseline and an SMPC baseline;
//   - a Tor-style anonymity network with the paper's three SGX deployment
//     phases, including a Chord-DHT membership mode without directory
//     authorities (§3.2);
//   - TLS-aware middleboxes that receive session keys over attested
//     channels and run DPI inside enclaves (§3.3).
//
// The package itself is the high-level facade: simulated networks, SGX
// hosts, enclave launch, and remote attestation. The subsystems live in
// internal/ packages (core, attest, netsim, topo, bgp, sdnctl, tor,
// chord, tlslite, middlebox, smpc, eval); the evaluation harness in
// internal/eval regenerates every table and figure of the paper's §5.
//
// # Quickstart
//
//	net := sgxnet.NewNetwork()
//	defer net.Close() // tears down every host's listeners and connections
//	arch, _ := sgxnet.NewArchSigner()
//	hostA, _ := sgxnet.NewSGXHost(net, "alice", arch)
//	hostB, _ := sgxnet.NewSGXHost(net, "bob", arch)
//	// launch enclaves, attest, exchange sealed messages — see
//	// examples/quickstart.
//
// See README.md for the architecture overview and EXPERIMENTS.md for the
// paper-vs-measured record.
package sgxnet
