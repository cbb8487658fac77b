// Toranon: the §3.2 scenario — the same anonymous fetch attempted in
// today's Tor and in the fully SGX-enabled design, with a malicious
// volunteer exit in the mix. In the baseline the tampering succeeds; in
// the SGX deployments the tampered build never makes it into a circuit.
package main

import (
	"fmt"
	"log"
	"strings"

	"sgxnet/internal/tor"
)

func main() {
	log.SetFlags(0)

	fmt.Println("=== Phase 0: today's Tor (baseline) ===")
	baseline()

	fmt.Println()
	fmt.Println("=== Phase 2: incremental SGX ORs (attestation-based admission) ===")
	incremental()

	fmt.Println()
	fmt.Println("=== Phase 3: fully SGX-enabled (DHT membership, no authorities) ===")
	full()
}

func baseline() {
	tn, err := tor.Deploy(tor.NetworkConfig{Mode: tor.ModeBaseline, Authorities: 3, Relays: 3, Exits: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer tn.Close()
	// A malicious volunteer: manual admission waves it through.
	evil, err := tn.AddOR(tor.ORConfig{Name: "bad-exit", Exit: true, Behavior: tor.BehaveTamperExit})
	if err != nil {
		log.Fatal(err)
	}
	client, err := tn.NewClient("alice", 5)
	if err != nil {
		log.Fatal(err)
	}
	consensus, err := tn.Discover(client)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consensus admits %d relays, including the malicious volunteer\n", len(consensus))
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
	resp, err := circ.Get(tor.WebHost+"|"+tor.WebService, []byte("GET /news"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice fetched %q", resp)
	if strings.HasPrefix(string(resp), "EVIL:") {
		fmt.Print("  ← silently modified by the exit")
	}
	fmt.Println()
}

func incremental() {
	tn, err := tor.Deploy(tor.NetworkConfig{Mode: tor.ModeSGXORs, Authorities: 3, Relays: 3, Exits: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer tn.Close()
	if _, err := tn.AddOR(tor.ORConfig{Name: "bad-exit", Exit: true, SGX: true, Behavior: tor.BehaveTamperExit}); err != nil {
		fmt.Printf("malicious build rejected at admission: measurement check failed\n")
	} else {
		log.Fatal("tampered OR admitted")
	}
	client, err := tn.NewClient("alice", 5)
	if err != nil {
		log.Fatal(err)
	}
	consensus, err := tn.Discover(client)
	if err != nil {
		log.Fatal(err)
	}
	path, err := client.PickPath(consensus, 3)
	if err != nil {
		log.Fatal(err)
	}
	circ, err := client.BuildCircuit(path)
	if err != nil {
		log.Fatal(err)
	}
	defer circ.Close()
	resp, err := circ.Get(tor.WebHost+"|"+tor.WebService, []byte("GET /news"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice fetched %q through verified relays only\n", resp)
}

func full() {
	tn, err := tor.Deploy(tor.NetworkConfig{Mode: tor.ModeSGXFull, Relays: 4, Exits: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer tn.Close()
	fmt.Printf("no directory authorities; %d-node Chord ring tracks membership\n", tn.Ring.Size())
	client, err := tn.NewClient("alice", 9)
	if err != nil {
		log.Fatal(err)
	}
	found, err := tn.Discover(client)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice walked the DHT and attested %d relays directly (hardware-verified membership)\n", len(found))
	path, err := client.PickPath(found, 3)
	if err != nil {
		log.Fatal(err)
	}
	circ, err := client.BuildCircuit(path)
	if err != nil {
		log.Fatal(err)
	}
	defer circ.Close()
	resp, err := circ.Get(tor.WebHost+"|"+tor.WebService, []byte("GET /news"))
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, d := range path {
		names = append(names, d.Name)
	}
	fmt.Printf("circuit %s → %q\n", strings.Join(names, " → "), resp)
}
