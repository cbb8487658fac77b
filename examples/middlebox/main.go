// Middlebox: the §3.3 enterprise scenario — TLS traffic flows through an
// in-path middlebox that cannot read it, until the endpoint attests the
// middlebox enclave and provisions its session keys, after which the
// enclave performs DPI with cryptographic assurance about what code does
// the inspecting.
//
// This is the single-function case. internal/nfchain (DESIGN.md §16)
// generalizes it into composable chains of enclave-hosted stages —
// classify, filter, DPI, NAT, re-encrypt — routed by an in-enclave rule
// table with hop admission amortized over one RA-TLS verifier; run
// `sgxnet-tables -chain-sweep` for the depth × batch × rule-set-size
// economics of chaining.
package main

import (
	"fmt"
	"log"

	"sgxnet/internal/eval"
	"sgxnet/internal/middlebox"
)

func main() {
	log.SetFlags(0)

	rig, err := eval.NewMboxRig(1)
	if err != nil {
		log.Fatal(err)
	}
	defer rig.Close()
	mb := rig.Mboxes[0]
	fmt.Printf("client → %s → server: TLS established through the middlebox\n", mb.Name)

	// Phase 1: keys not provisioned — the middlebox is blind.
	if err := rig.Session.Send([]byte("quarterly numbers attached, no malware here")); err != nil {
		log.Fatal(err)
	}
	if _, err := rig.Session.Recv(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before provisioning: middlebox saw %d alerts (it forwards ciphertext it cannot open)\n",
		len(mb.Alerts()))

	// Phase 2: attest + provision over the secure channel.
	n, err := rig.ProvisionAll(nil, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attested the middlebox enclave and provisioned session keys (%d attestation — Table 3)\n", n)

	// Phase 3: inspection catches the exfiltration attempt.
	if err := rig.Session.Send([]byte("begin exfiltrate of customer db")); err != nil {
		log.Fatal(err)
	}
	if _, err := rig.Session.Recv(); err != nil {
		log.Fatal(err)
	}
	for _, a := range mb.Alerts() {
		fmt.Printf("DPI alert: pattern %q at offset %d (flow %d)\n", a.Match.Pattern, a.Match.Offset, a.Flow)
	}

	// Phase 4: a tampered build asks for keys and is refused.
	rogue, err := rig.AddTamperedMbox("rogue")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := middlebox.Provision(rig.Endpoint, rig.EpShim, rig.Client,
		rogue.Host.Name(), "client", rig.Session.ExportKeys()); err != nil {
		fmt.Printf("rogue middlebox refused: %v\n", err)
	} else {
		log.Fatal("rogue middlebox obtained keys")
	}
}
