// Command tornet deploys the paper's §3.2 Tor network in a chosen SGX
// phase, runs an anonymous fetch through a three-hop circuit, and
// (optionally) demonstrates the attacks the SGX deployments exclude.
//
// Usage:
//
//	tornet -mode baseline -attack exit-tamper
//	tornet -mode sgx-ors  -attack exit-tamper   # admission rejects it
//	tornet -mode sgx-full
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"sgxnet/internal/tor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tornet: ")
	modeFlag := flag.String("mode", "baseline", "deployment: baseline | sgx-dir | sgx-ors | sgx-full")
	attack := flag.String("attack", "", "simulate an attack: exit-tamper | snoop | dir-subvert")
	relays := flag.Int("relays", 3, "non-exit onion routers")
	exits := flag.Int("exits", 2, "exit onion routers")
	auths := flag.Int("authorities", 3, "directory authorities")
	flag.Parse()

	var mode tor.DeployMode
	switch *modeFlag {
	case "baseline":
		mode = tor.ModeBaseline
	case "sgx-dir":
		mode = tor.ModeSGXDirectory
	case "sgx-ors":
		mode = tor.ModeSGXORs
	case "sgx-full":
		mode = tor.ModeSGXFull
	default:
		log.Fatalf("unknown mode %q", *modeFlag)
	}
	cfg := tor.NetworkConfig{Mode: mode, Authorities: *auths, Relays: *relays, Exits: *exits, Seed: 1}
	if mode == tor.ModeSGXFull {
		cfg.Authorities = 0
	}
	tn, err := tor.Deploy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer tn.Close()
	fmt.Printf("deployed %v: %d ORs", mode, len(tn.ORs))
	if mode == tor.ModeSGXFull {
		fmt.Printf(", DHT membership (%d-node Chord ring, no directory authorities)\n", tn.Ring.Size())
	} else {
		fmt.Printf(", %d directory authorities\n", len(tn.Auths))
	}

	switch *attack {
	case "exit-tamper":
		runExitTamper(tn, mode)
		return
	case "snoop":
		runSnoop(tn, mode)
		return
	case "dir-subvert":
		runDirSubvert(tn, mode)
		return
	case "":
	default:
		log.Fatalf("unknown attack %q", *attack)
	}

	client, err := tn.NewClient("client", 7)
	if err != nil {
		log.Fatal(err)
	}
	consensus, err := tn.Discover(client)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client learned %d relays", len(consensus))
	if client.Attestations > 0 {
		fmt.Printf(" (%d remote attestations)", client.Attestations)
	}
	fmt.Println()
	path, err := client.PickPath(consensus, 3)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, d := range path {
		names = append(names, d.Name)
	}
	circ, err := client.BuildCircuit(path)
	if err != nil {
		log.Fatal(err)
	}
	defer circ.Close()
	resp, err := circ.Get(tor.WebHost+"|"+tor.WebService, []byte("GET /index"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s → fetched %q\n", strings.Join(names, " → "), resp)
}

func runExitTamper(tn *tor.TorNet, mode tor.DeployMode) {
	evil, err := tn.AddOR(tor.ORConfig{
		Name: "evil-exit", Exit: true,
		SGX:      mode >= tor.ModeSGXORs,
		Behavior: tor.BehaveTamperExit,
	})
	if err != nil {
		fmt.Printf("malicious exit REFUSED at admission: %v\n", err)
		fmt.Println("→ the enclave integrity check caught the tampered build (§3.2)")
		return
	}
	client, err := tn.NewClient("victim", 3)
	if err != nil {
		log.Fatal(err)
	}
	consensus, err := tn.Discover(client)
	if err != nil {
		log.Fatal(err)
	}
	var path []tor.Descriptor
	for _, d := range consensus {
		if !d.Exit && len(path) < 2 {
			path = append(path, d)
		}
	}
	path = append(path, evil.Descriptor())
	circ, err := client.BuildCircuit(path)
	if err != nil {
		log.Fatal(err)
	}
	defer circ.Close()
	resp, err := circ.Get(tor.WebHost+"|"+tor.WebService, []byte("GET /login"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim received %q\n", resp)
	if strings.HasPrefix(string(resp), "EVIL:") {
		fmt.Println("→ the manually-admitted malicious exit modified the plaintext undetected (spoiled onions)")
	}
}

func runSnoop(tn *tor.TorNet, mode tor.DeployMode) {
	evil, err := tn.AddOR(tor.ORConfig{
		Name: "snoop-exit", Exit: true,
		SGX:      mode >= tor.ModeSGXORs,
		Behavior: tor.BehaveSnoop,
	})
	if err != nil {
		fmt.Printf("snooping exit REFUSED at admission: %v\n", err)
		return
	}
	client, _ := tn.NewClient("victim", 4)
	consensus, err := tn.Discover(client)
	if err != nil {
		log.Fatal(err)
	}
	var path []tor.Descriptor
	for _, d := range consensus {
		if !d.Exit && len(path) < 2 {
			path = append(path, d)
		}
	}
	path = append(path, evil.Descriptor())
	circ, err := client.BuildCircuit(path)
	if err != nil {
		log.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.Get(tor.WebHost+"|"+tor.WebService, []byte("GET /secret-profile")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snooping exit recorded: %v\n", evil.SnoopLog())
	fmt.Println("→ one bad apple: the exit profiles plaintext traffic (§3.2)")
}

func runDirSubvert(tn *tor.TorNet, mode tor.DeployMode) {
	if mode == tor.ModeSGXFull {
		fmt.Println("fully-SGX mode has no directory authorities to subvert")
		return
	}
	evil := tor.Descriptor{Name: "ghost-or", Host: "nowhere", Exit: true}
	n := len(tn.Auths)/2 + 1 // a majority
	for _, a := range tn.Auths[:n] {
		a.Subvert()
		if err := a.InjectMaliciousVote(evil); err != nil {
			fmt.Printf("authority %s: %v — enclave votes cannot be altered, attacker reduced to DoS\n", a.Name, err)
		} else {
			fmt.Printf("authority %s subverted: now voting for ghost-or\n", a.Name)
		}
	}
	consensus := tor.Consensus(tn.Auths)
	for _, d := range consensus {
		if d.Name == "ghost-or" {
			fmt.Println("→ consensus POISONED: a majority of subverted directories admitted the attacker's OR")
			return
		}
	}
	fmt.Printf("→ consensus of the %d surviving authorities stays honest (%d relays, no ghost-or)\n",
		len(tn.Auths)-n, len(consensus))
}
