package middlebox

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/tlslite"
)

// --- DPI engine ---

func TestDPIBasicMatches(t *testing.T) {
	d, err := NewDPI([]string{"virus", "exploit", "usvi"})
	if err != nil {
		t.Fatal(err)
	}
	hits := d.Scan([]byte("the virusvirus carries an exploit"))
	var names []string
	for _, h := range hits {
		names = append(names, h.Pattern)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "virus") || !strings.Contains(joined, "exploit") {
		t.Fatalf("hits = %v", names)
	}
	// Overlapping match: "virusvirus" contains "usvi" spanning the two.
	if !strings.Contains(joined, "usvi") {
		t.Fatalf("overlapping pattern missed: %v", names)
	}
}

func TestDPINoFalsePositives(t *testing.T) {
	d, _ := NewDPI([]string{"attack"})
	if hits := d.Scan([]byte("attac katt ack")); len(hits) != 0 {
		t.Fatalf("phantom hits %v", hits)
	}
	if hits := d.Scan(nil); len(hits) != 0 {
		t.Fatal("hits on empty input")
	}
}

func TestDPISuffixPatterns(t *testing.T) {
	d, _ := NewDPI([]string{"he", "she", "his", "hers"})
	hits := d.Scan([]byte("ushers"))
	// Classic Aho–Corasick example: "she" at 4, "he" at 4, "hers" at 6.
	want := map[string]bool{"she": false, "he": false, "hers": false}
	for _, h := range hits {
		want[h.Pattern] = true
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("pattern %q missed in 'ushers' (hits %v)", p, hits)
		}
	}
	if len(hits) != 3 {
		t.Fatalf("want 3 hits, got %v", hits)
	}
}

func TestDPIEmptyPatternRejected(t *testing.T) {
	if _, err := NewDPI([]string{"ok", ""}); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

// Property: Scan agrees with naive substring counting.
func TestDPIMatchesNaiveProperty(t *testing.T) {
	pats := []string{"ab", "bc", "abc", "ca", "aa"}
	d, err := NewDPI(pats)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte) bool {
		// Restrict alphabet to make matches likely.
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = 'a' + b%3
		}
		naive := 0
		for _, p := range pats {
			for i := 0; i+len(p) <= len(data); i++ {
				if string(data[i:i+len(p)]) == p {
					naive++
				}
			}
		}
		return len(d.Scan(data)) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- middlebox deployment ---

type mboxFixture struct {
	net      *netsim.Network
	arch     *core.Signer
	client   *netsim.SimHost
	server   *netsim.SimHost
	mboxes   []*Middlebox
	endpoint *core.Enclave
	epShim   *netsim.IOShim
	epState  *EndpointState
}

var testPatterns = []string{"malware", "exfiltrate"}

// newMboxFixture deploys client → mbox(es) → server with a TLS echo
// server.
func newMboxFixture(t *testing.T, nMbox int, requireBoth, tampered bool) *mboxFixture {
	t.Helper()
	f := &mboxFixture{net: netsim.New()}
	arch, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	f.arch = arch
	newHost := func(name string) *netsim.SimHost {
		h, _, err := attest.NewSGXHost(f.net, name, arch)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	f.client = newHost("client")
	f.server = newHost("server")

	// TLS echo server.
	sl, err := f.server.Listen("tls")
	if err != nil {
		t.Fatal(err)
	}
	go sl.Serve(func(c *netsim.Conn) {
		s, err := tlslite.ServerHandshake(core.NewMeter(), c)
		if err != nil {
			c.Close()
			return
		}
		for {
			msg, err := s.Recv()
			if err != nil {
				return
			}
			if err := s.Send(append([]byte("echo:"), msg...)); err != nil {
				return
			}
		}
	})

	// Middlebox chain, last one points at the server.
	next := "server|tls"
	for i := nMbox - 1; i >= 0; i-- {
		host := newHost(sprintf("mbox%d", i))
		mb, err := Launch(host, Config{
			Name:                 sprintf("mbox%d", i),
			NextHop:              next,
			Patterns:             testPatterns,
			RequireBothEndpoints: requireBoth,
			Tampered:             tampered && i == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.mboxes = append([]*Middlebox{mb}, f.mboxes...)
		next = host.Name() + "|" + DataService
	}

	// Endpoint enclave on the client host.
	f.epState = NewEndpointState([]core.Measurement{Measurement(testPatterns, requireBoth)})
	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := f.client.Platform().Launch(EndpointProgram("enterprise-client", f.epState), signer)
	if err != nil {
		t.Fatal(err)
	}
	f.endpoint = enc
	f.epShim = netsim.NewMsgShim(f.client, enc.Meter())
	enc.BindHost(f.epShim)
	return f
}

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// entryHop returns where the client dials to reach the chain.
func (f *mboxFixture) entryHop() (string, string) {
	if len(f.mboxes) == 0 {
		return "server", "tls"
	}
	return f.mboxes[0].Host.Name(), DataService
}

// dialTLS runs a TLS handshake through the chain.
func (f *mboxFixture) dialTLS(t *testing.T) *tlslite.Session {
	t.Helper()
	host, svc := f.entryHop()
	conn, err := f.client.Dial(host, svc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tlslite.ClientHandshake(core.NewMeter(), conn)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTLSThroughChainWithoutKeys(t *testing.T) {
	f := newMboxFixture(t, 2, false, false)
	s := f.dialTLS(t)
	if err := s.Send([]byte("contains malware signature")); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Recv()
	if err != nil || string(resp) != "echo:contains malware signature" {
		t.Fatalf("%q %v", resp, err)
	}
	// Without session keys the middleboxes saw only ciphertext: no
	// alerts despite the pattern in the plaintext.
	for _, mb := range f.mboxes {
		if n := len(mb.Alerts()); n != 0 {
			t.Fatalf("%s raised %d alerts without keys — TLS is broken", mb.Name, n)
		}
	}
}

func TestUnilateralProvisioningEnablesDPI(t *testing.T) {
	f := newMboxFixture(t, 2, false, false)
	s := f.dialTLS(t)
	attested := 0
	for _, mb := range f.mboxes {
		active, err := Provision(f.endpoint, f.epShim, f.client, mb.Host.Name(), "client", s.ExportKeys())
		if err != nil {
			t.Fatal(err)
		}
		if !active {
			t.Fatalf("%s did not activate on unilateral provisioning", mb.Name)
		}
		attested++
	}
	// Table 3: one remote attestation per in-path middlebox.
	if attested != 2 {
		t.Fatalf("attestations = %d", attested)
	}
	if err := s.Send([]byte("please exfiltrate the database")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	for _, mb := range f.mboxes {
		alerts := mb.Alerts()
		if len(alerts) == 0 {
			t.Fatalf("%s raised no alerts after key provisioning", mb.Name)
		}
		if alerts[0].Match.Pattern != "exfiltrate" {
			t.Fatalf("%s alert %v", mb.Name, alerts[0])
		}
	}
}

func TestBilateralConsentRequired(t *testing.T) {
	f := newMboxFixture(t, 1, true, false)
	s := f.dialTLS(t)
	mb := f.mboxes[0]
	active, err := Provision(f.endpoint, f.epShim, f.client, mb.Host.Name(), "client", s.ExportKeys())
	if err != nil {
		t.Fatal(err)
	}
	if active {
		t.Fatal("middlebox activated on one endorsement despite RequireBothEndpoints")
	}
	if err := s.Send([]byte("malware inside")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if len(mb.Alerts()) != 0 {
		t.Fatal("middlebox inspected with only one endpoint's consent")
	}
	// Server endorses the same keys (its own endpoint enclave).
	srvState := NewEndpointState([]core.Measurement{Measurement(testPatterns, true)})
	signer, _ := core.NewSigner()
	srvEnc, err := f.server.Platform().Launch(EndpointProgram("server-endpoint", srvState), signer)
	if err != nil {
		t.Fatal(err)
	}
	srvShim := netsim.NewMsgShim(f.server, srvEnc.Meter())
	srvEnc.BindHost(srvShim)
	active, err = Provision(srvEnc, srvShim, f.server, mb.Host.Name(), "server", s.ExportKeys())
	if err != nil {
		t.Fatal(err)
	}
	if !active {
		t.Fatal("middlebox did not activate after both endorsements")
	}
	if err := s.Send([]byte("more malware here")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if len(mb.Alerts()) == 0 {
		t.Fatal("no alerts after bilateral consent")
	}
}

func TestTamperedMiddleboxNeverGetsKeys(t *testing.T) {
	f := newMboxFixture(t, 1, false, true) // mbox0 is a tampered build
	s := f.dialTLS(t)
	mb := f.mboxes[0]
	if _, err := Provision(f.endpoint, f.epShim, f.client, mb.Host.Name(), "client", s.ExportKeys()); err == nil {
		t.Fatal("endpoint provisioned keys to a tampered middlebox")
	}
	if err := s.Send([]byte("malware payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if len(mb.Alerts()) != 0 {
		t.Fatal("tampered middlebox decrypted traffic")
	}
}

func TestTrafficIntegrityThroughChain(t *testing.T) {
	f := newMboxFixture(t, 3, false, false)
	s := f.dialTLS(t)
	for i := 0; i < 5; i++ {
		msg := []byte(sprintf("message %d", i))
		if err := s.Send(msg); err != nil {
			t.Fatal(err)
		}
		resp, err := s.Recv()
		if err != nil || string(resp) != "echo:"+string(msg) {
			t.Fatalf("round %d: %q %v", i, resp, err)
		}
	}
}
