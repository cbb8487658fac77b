package middlebox

import (
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/tlslite"
)

func testKeys(b byte) tlslite.Keys {
	var k tlslite.Keys
	k.EncC2S[0], k.EncS2C[0] = b, b+1
	k.MacC2S[0], k.MacS2C[0] = b+2, b+3
	return k
}

func TestMCTLSProvisionAndInspect(t *testing.T) {
	m := core.NewMeter()
	box, err := NewMCTLSBox(m, "mc0", testPatterns, false)
	if err != nil {
		t.Fatal(err)
	}
	ep := NewMCTLSEndpoint("client")

	// Establish a real session's keys and provision them.
	var master [32]byte
	master[0] = 7
	codec := tlslite.NewCodec(deriveTestKeys(master))
	if err := ep.Provision(m, box, deriveTestKeys(master)); err != nil {
		t.Fatal(err)
	}
	if !box.HasKeys() {
		t.Fatal("box has no keys after provisioning")
	}
	rec, err := codec.Seal(m, tlslite.ClientToServer, 0, []byte("malware attachment"))
	if err != nil {
		t.Fatal(err)
	}
	box.Inspect(m, 1, rec)
	if len(box.Alerts()) == 0 {
		t.Fatal("mcTLS box failed to inspect with provisioned keys")
	}
}

// deriveTestKeys mirrors tlslite's internal derivation for tests in this
// package.
func deriveTestKeys(master [32]byte) tlslite.Keys {
	// Build via a Codec round trip: the key block is just bytes; use a
	// fixed synthetic block.
	var k tlslite.Keys
	copy(k.EncC2S[:], master[:16])
	copy(k.EncS2C[:], master[16:])
	copy(k.MacC2S[:], master[:])
	copy(k.MacS2C[:], master[:])
	k.MacS2C[0] ^= 1
	return k
}

// TestMCTLSFirstContactCaching: the expensive DH happens once per
// (endpoint, box) pair; later sessions reuse the channel.
func TestMCTLSFirstContactCaching(t *testing.T) {
	m := core.NewMeter()
	box, err := NewMCTLSBox(m, "mc0", testPatterns, false)
	if err != nil {
		t.Fatal(err)
	}
	ep := NewMCTLSEndpoint("client")
	m.SnapshotAndReset()
	if err := ep.Provision(m, box, testKeys(1)); err != nil {
		t.Fatal(err)
	}
	first := m.Normal()
	m.SnapshotAndReset()
	if err := ep.Provision(m, box, testKeys(50)); err != nil {
		t.Fatal(err)
	}
	second := m.Normal()
	if first < 10*second {
		t.Fatalf("first contact %d not dominated by DH vs cached %d", first, second)
	}
}

// TestMCTLSTrustGap is the §3.3 comparison the paper motivates: the
// mcTLS-style protocol hands session keys to whatever runs behind the
// box's public key — a tampered build included — while the SGX design's
// attestation refuses it (TestTamperedMiddleboxNeverGetsKeys).
func TestMCTLSTrustGap(t *testing.T) {
	m := core.NewMeter()
	tamperedBox, err := NewMCTLSBox(m, "evil", testPatterns, true)
	if err != nil {
		t.Fatal(err)
	}
	ep := NewMCTLSEndpoint("client")
	if err := ep.Provision(m, tamperedBox, testKeys(9)); err != nil {
		t.Fatalf("mcTLS provisioning errored: %v", err)
	}
	if !tamperedBox.HasKeys() {
		t.Fatal("setup broken")
	}
	// The protocol accepted: session keys now sit in software the
	// endpoint knows nothing about. With SGX, the equivalent flow fails
	// the measurement check — see TestTamperedMiddleboxNeverGetsKeys.
}

// TestMCTLSWrongChannelRejected: a box cannot accept keys from an
// endpoint it never exchanged with.
func TestMCTLSWrongChannelRejected(t *testing.T) {
	m := core.NewMeter()
	box, err := NewMCTLSBox(m, "mc0", testPatterns, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := box.acceptKeys(m, "stranger", []byte("junk")); err == nil {
		t.Fatal("keys accepted over nonexistent channel")
	}
}
