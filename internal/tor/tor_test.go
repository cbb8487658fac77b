package tor

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sgxnet/internal/attest"
)

// deploy builds a small network: 3 authorities, 3 relays, 2 exits.
func deploy(t *testing.T, mode DeployMode) *TorNet {
	t.Helper()
	tn, err := Deploy(NetworkConfig{Mode: mode, Authorities: 3, Relays: 3, Exits: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func fetchThroughCircuit(t *testing.T, tn *TorNet, seed int64) ([]byte, []Descriptor) {
	t.Helper()
	c, err := tn.NewClient("client", seed)
	if err != nil {
		t.Fatal(err)
	}
	consensus, err := tn.Discover(c)
	if err != nil {
		t.Fatal(err)
	}
	path, err := c.PickPath(consensus, 3)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := c.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	resp, err := circ.Get(WebHost+"|"+WebService, []byte("GET /index"))
	if err != nil {
		t.Fatal(err)
	}
	return resp, path
}

func TestBaselineCircuitEndToEnd(t *testing.T) {
	tn := deploy(t, ModeBaseline)
	resp, path := fetchThroughCircuit(t, tn, 7)
	if string(resp) != "content:GET /index" {
		t.Fatalf("response %q", resp)
	}
	if len(path) != 3 {
		t.Fatalf("path length %d", len(path))
	}
	if !path[2].Exit {
		t.Fatal("last hop is not an exit")
	}
}

func TestCircuitThroughEveryMode(t *testing.T) {
	for _, mode := range []DeployMode{ModeBaseline, ModeSGXDirectory, ModeSGXORs, ModeSGXFull} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := NetworkConfig{Mode: mode, Authorities: 3, Relays: 3, Exits: 2, Seed: 1}
			if mode == ModeSGXFull {
				cfg.Authorities = 0
			}
			tn, err := Deploy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			resp, _ := fetchThroughCircuit(t, tn, 99)
			if string(resp) != "content:GET /index" {
				t.Fatalf("mode %v: response %q", mode, resp)
			}
		})
	}
}

// TestExitTamperingSucceedsInBaseline demonstrates the "spoiled onions"
// attack: a manually admitted malicious exit modifies plaintext and the
// client cannot tell.
func TestExitTamperingSucceedsInBaseline(t *testing.T) {
	tn := deploy(t, ModeBaseline)
	if _, err := tn.AddOR(ORConfig{Name: "evil-exit", Exit: true, Behavior: BehaveTamperExit}); err != nil {
		t.Fatal(err)
	}
	c, err := tn.NewClient("victim", 3)
	if err != nil {
		t.Fatal(err)
	}
	consensus, err := tn.Discover(c)
	if err != nil {
		t.Fatal(err)
	}
	inConsensus := false
	for _, d := range consensus {
		if d.Name == "evil-exit" {
			inConsensus = true
		}
	}
	if !inConsensus {
		t.Fatal("baseline admission should accept the malicious volunteer")
	}
	// Build a circuit that uses the evil exit explicitly.
	var path []Descriptor
	for _, d := range consensus {
		if !d.Exit && len(path) < 2 {
			path = append(path, d)
		}
	}
	for _, d := range consensus {
		if d.Name == "evil-exit" {
			path = append(path, d)
		}
	}
	circ, err := c.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	resp, err := circ.Get(WebHost+"|"+WebService, []byte("req"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(resp), "EVIL:") {
		t.Fatalf("expected tampered response, got %q — attack did not manifest", resp)
	}
}

// TestBadAppleSnoopingInBaseline: a snooping exit records plaintext.
func TestBadAppleSnoopingInBaseline(t *testing.T) {
	tn := deploy(t, ModeBaseline)
	evil, err := tn.AddOR(ORConfig{Name: "snoop-exit", Exit: true, Behavior: BehaveSnoop})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tn.NewClient("victim", 4)
	consensus, _ := tn.Discover(c)
	var path []Descriptor
	for _, d := range consensus {
		if !d.Exit && len(path) < 2 {
			path = append(path, d)
		}
	}
	path = append(path, evil.Descriptor())
	circ, err := c.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.Get(WebHost+"|"+WebService, []byte("secret-query")); err != nil {
		t.Fatal(err)
	}
	log := evil.SnoopLog()
	if len(log) == 0 || !strings.Contains(log[0], "secret-query") {
		t.Fatalf("snoop log %v — the bad-apple attack should observe plaintext", log)
	}
}

// TestSGXAdmissionRejectsTamperedOR: in the incremental deployment, a
// misbehaving build fails the enclave integrity check at admission.
func TestSGXAdmissionRejectsTamperedOR(t *testing.T) {
	tn := deploy(t, ModeSGXORs)
	_, err := tn.AddOR(ORConfig{Name: "evil-exit", Exit: true, SGX: true, Behavior: BehaveTamperExit})
	if err == nil {
		t.Fatal("tampered SGX OR was admitted")
	}
	// It must not appear in any authority's view.
	for _, a := range tn.Auths {
		for _, d := range a.Vote() {
			if d.Name == "evil-exit" {
				t.Fatal("tampered OR present in authority view")
			}
		}
	}
	// Honest circuits still work.
	resp, _ := fetchThroughCircuit(t, tn, 11)
	if string(resp) != "content:GET /index" {
		t.Fatalf("response %q", resp)
	}
}

// TestRATLSTamperedBuildRejected: a relay running a non-whitelisted
// build in a genuine enclave passes every signature check, and the
// measurement policy still refuses it at admission. Legacy non-SGX
// relays keep the manual path. (The name dates from RA-TLS certificate
// admission; relays are now admitted by interactive attestation.)
func TestRATLSTamperedBuildRejected(t *testing.T) {
	tn := deploy(t, ModeSGXORs)
	_, err := tn.AddOR(ORConfig{Name: "or-rogue", Exit: true, SGX: true, Version: "9.9"})
	if err == nil {
		t.Fatal("tampered build admitted")
	}
	var perr *attest.ErrPolicy
	if !errors.As(err, &perr) {
		t.Fatalf("rejection not via the measurement policy: %v", err)
	}
	if !strings.Contains(err.Error(), "not admitted") {
		t.Fatalf("unexpected error shape: %v", err)
	}
	if _, err := tn.AddOR(ORConfig{Name: "or-legacy", SGX: false}); err != nil {
		t.Fatalf("legacy relay refused: %v", err)
	}
	for _, a := range tn.Auths {
		var rogue, legacy bool
		for _, d := range a.Vote() {
			rogue = rogue || d.Name == "or-rogue"
			legacy = legacy || d.Name == "or-legacy"
		}
		if rogue {
			t.Fatalf("tampered build present in %s's view", a.Name)
		}
		if !legacy {
			t.Fatalf("legacy relay missing from %s's view", a.Name)
		}
	}
}

// TestFullySGXRefusesTamperedAndNonSGX: in the fully SGX-enabled setting
// a tampered build cannot join the DHT usefully — clients attest every
// OR they discover.
func TestFullySGXExcludesTamperedOR(t *testing.T) {
	tn, err := Deploy(NetworkConfig{Mode: ModeSGXFull, Relays: 3, Exits: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Non-SGX volunteer is refused outright.
	if _, err := tn.AddOR(ORConfig{Name: "legacy", Exit: true}); err == nil {
		t.Fatal("non-SGX OR accepted in fully-SGX network")
	}
	// Tampered SGX build joins the DHT (nothing stops it writing) but
	// fails client attestation during discovery.
	if _, err := tn.AddOR(ORConfig{Name: "evil", Exit: true, SGX: true, Behavior: BehaveTamperExit}); err != nil {
		t.Logf("tampered OR join: %v", err)
	}
	c, err := tn.NewClient("client", 8)
	if err != nil {
		t.Fatal(err)
	}
	found, err := tn.Discover(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range found {
		if d.Name == "evil" {
			t.Fatal("client accepted tampered OR after attestation")
		}
	}
	if len(found) != 5 {
		t.Fatalf("discovered %d honest ORs, want 5", len(found))
	}
}

// TestDirectorySubversionBaseline: with a majority of authorities
// subverted, the attacker votes a malicious OR into the baseline
// consensus.
func TestDirectorySubversionBaseline(t *testing.T) {
	tn := deploy(t, ModeBaseline)
	evil := Descriptor{Name: "ghost-or", Host: "nowhere", Exit: true}
	// Subvert 2 of 3 authorities (a majority).
	for _, a := range tn.Auths[:2] {
		a.Subvert()
		if err := a.InjectMaliciousVote(evil); err != nil {
			t.Fatal(err)
		}
	}
	consensus := Consensus(tn.Auths)
	found := false
	for _, d := range consensus {
		if d.Name == "ghost-or" {
			found = true
		}
	}
	if !found {
		t.Fatal("majority-subverted baseline directories failed to poison the consensus")
	}
	// Dropping the relay from the subverted authorities' host-side
	// lists takes it out of the consensus again.
	for _, a := range tn.Auths[:2] {
		a.Drop(evil.Name)
	}
	for _, d := range Consensus(tn.Auths) {
		if d.Name == evil.Name {
			t.Fatal("dropped relay still in the consensus")
		}
	}
}

// TestDirectorySubversionSGX: subverting SGX authorities degrades to
// denial of service — the consensus of the surviving authorities stays
// honest.
func TestDirectorySubversionSGX(t *testing.T) {
	tn := deploy(t, ModeSGXDirectory)
	evil := Descriptor{Name: "ghost-or", Host: "nowhere", Exit: true}
	for _, a := range tn.Auths[:2] {
		a.Subvert() // kills the enclave-backed authority
		if err := a.InjectMaliciousVote(evil); err == nil {
			t.Fatal("attacker altered an SGX authority's votes")
		}
	}
	consensus := Consensus(tn.Auths)
	if len(consensus) == 0 {
		t.Fatal("surviving authority should still produce a consensus")
	}
	for _, d := range consensus {
		if d.Name == "ghost-or" {
			t.Fatal("poisoned consensus despite SGX directories")
		}
	}
}

// TestFetchConsensusInNameOrder: on an honest network a client's
// consensus is the directory's, in name order, on every fetch, so the
// path a seeded client picks depends on its seed alone.
func TestFetchConsensusInNameOrder(t *testing.T) {
	tn := deploy(t, ModeBaseline)
	defer tn.Close()
	want := Consensus(tn.Auths)
	if len(want) == 0 || !sort.SliceIsSorted(want, func(i, j int) bool { return want[i].Name < want[j].Name }) {
		t.Fatalf("directory consensus not in name order: %+v", want)
	}
	var paths [2][]Descriptor
	for i, name := range []string{"client-a", "client-b"} {
		c, err := tn.NewClient(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		var got []Descriptor
		for j := 0; j < 10; j++ {
			if got, err = c.FetchConsensus(tn.AuthorityHosts()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s fetch %d: consensus %+v, want %+v", name, j, got, want)
			}
		}
		if paths[i], err = c.PickPath(got, 3); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(paths[0], paths[1]) {
		t.Fatalf("same-seed clients picked %+v and %+v", paths[0], paths[1])
	}
}

// TestMajority: a name stays when more than half of the views list it
// (half is not enough), with the descriptor seen last, and the result is
// in name order.
func TestMajority(t *testing.T) {
	a, b, c := Descriptor{Name: "a"}, Descriptor{Name: "b"}, Descriptor{Name: "c"}
	b2 := Descriptor{Name: "b", Exit: true}
	got := majority([][]Descriptor{{c, b, a}, {b, c}, {b2, c}, {a}})
	if want := []Descriptor{b2, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("majority = %+v, want %+v", got, want)
	}
}

// TestClientAttestsAuthorities covers Table 3's client row: one remote
// attestation per authority.
func TestClientAttestsAuthorities(t *testing.T) {
	tn := deploy(t, ModeSGXDirectory)
	c, err := tn.NewClient("client", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Discover(c); err != nil {
		t.Fatal(err)
	}
	if c.Attestations != len(tn.Auths) {
		t.Fatalf("client performed %d attestations, want %d (one per authority)", c.Attestations, len(tn.Auths))
	}
}

// TestAuthorityAttestationCount covers Table 3's authority row: the
// admission scan attests each SGX OR once per authority.
func TestAuthorityAttestationCount(t *testing.T) {
	tn := deploy(t, ModeSGXORs)
	total := 5 // 3 relays + 2 exits
	for _, a := range tn.Auths {
		if a.Attestations != total {
			t.Fatalf("authority %s attested %d ORs, want %d", a.Name, a.Attestations, total)
		}
	}
}

// TestSGXDirClientRejectsFakeAuthority: a host impersonating an
// authority without the right enclave fails client attestation.
func TestSGXDirClientRejectsFakeAuthority(t *testing.T) {
	tn := deploy(t, ModeSGXDirectory)
	// Launch a non-SGX "authority" on a new host and offer it to the client.
	host, err := tn.newHost("fake-auth", false)
	if err != nil {
		t.Fatal(err)
	}
	fake, err := LaunchAuthority(host, AuthorityConfig{Name: "fake", SGX: false})
	if err != nil {
		t.Fatal(err)
	}
	fake.AdmitManually(Descriptor{Name: "ghost", Host: "nowhere", Exit: true})
	c, _ := tn.NewClient("client", 5)
	hosts := append(tn.AuthorityHosts(), "fake-auth")
	consensus, err := c.FetchConsensus(hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range consensus {
		if d.Name == "ghost" {
			t.Fatal("fake authority influenced an SGX client")
		}
	}
}

func TestDeployModeString(t *testing.T) {
	for _, m := range []DeployMode{ModeBaseline, ModeSGXDirectory, ModeSGXORs, ModeSGXFull, DeployMode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(NetworkConfig{Mode: ModeBaseline}); err == nil {
		t.Fatal("directory mode without authorities accepted")
	}
}
