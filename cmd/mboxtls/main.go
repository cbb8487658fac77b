// Command mboxtls runs the paper's §3.3 application: a TLS session
// through a chain of in-path middleboxes; the client remote-attests each
// middlebox enclave and provisions its session keys over the secure
// channel, enabling in-enclave deep packet inspection of traffic the
// boxes could not otherwise read.
//
// Usage:
//
//	mboxtls -mboxes 2
//	mboxtls -mboxes 1 -tampered    # attestation refuses the rogue box
package main

import (
	"flag"
	"fmt"
	"log"

	"sgxnet/internal/eval"
	"sgxnet/internal/middlebox"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mboxtls: ")
	nMbox := flag.Int("mboxes", 2, "number of in-path middleboxes")
	tampered := flag.Bool("tampered", false, "also try a tampered middlebox build")
	flag.Parse()

	rig, err := eval.NewMboxRig(*nMbox)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TLS handshake completed through %d middlebox(es); DPI rules: %v\n", *nMbox, eval.DPIPatterns)

	if err := rig.Session.Send([]byte("GET /report")); err != nil {
		log.Fatal(err)
	}
	if _, err := rig.Session.Recv(); err != nil {
		log.Fatal(err)
	}
	for _, mb := range rig.Mboxes {
		fmt.Printf("%s before key provisioning: %d alerts (sees only ciphertext)\n", mb.Name, len(mb.Alerts()))
	}

	n, err := rig.ProvisionAll(nil, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provisioned session keys to %d middleboxes (%d remote attestations — Table 3)\n", n, n)

	if err := rig.Session.Send([]byte("POST /exfiltrate?payload=malware")); err != nil {
		log.Fatal(err)
	}
	if _, err := rig.Session.Recv(); err != nil {
		log.Fatal(err)
	}
	for _, mb := range rig.Mboxes {
		fmt.Printf("%s after provisioning: %d alerts", mb.Name, len(mb.Alerts()))
		for _, a := range mb.Alerts() {
			fmt.Printf(" [%s@%d]", a.Match.Pattern, a.Match.Offset)
		}
		fmt.Println()
	}

	if *tampered {
		mb, err := rig.AddTamperedMbox("rogue-mbox")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := middlebox.Provision(rig.Endpoint, rig.EpShim, rig.Client,
			mb.Host.Name(), "client", rig.Session.ExportKeys()); err != nil {
			fmt.Printf("tampered middlebox provisioning REFUSED: %v\n", err)
			fmt.Println("→ the modified build never sees a session key (§3.3)")
		} else {
			log.Fatal("tampered middlebox was provisioned — attestation failed to protect the keys")
		}
	}
}
