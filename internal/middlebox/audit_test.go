package middlebox

import (
	"testing"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/tlslite"
)

// Charge-before-validate regression tests (the PR-9 audit discipline
// applied to middlebox): a provisioning attempt that fails its checks
// must charge the receiving box zero modelled work — the gap here was a
// sealed blob with an authentic MAC but the wrong plaintext length,
// which used to pay the full MAC+decrypt bill before UnmarshalKeys
// noticed. The fix rejects any sealed key block whose ciphertext length
// differs from the single valid value (tlslite.KeysLen +
// sgxcrypto.Overhead) before any metered crypto.

// TestProvisionWrongLengthChargesNothing forges an *authentic* sealed
// blob of the wrong plaintext length over a genuinely attested session
// and replays the endpoint's provisioning message with it: the mbox
// enclave must refuse, and the failed ECALL must cost exactly the
// EENTER/EEXIT pair.
func TestProvisionWrongLengthChargesNothing(t *testing.T) {
	f := newMboxFixture(t, 1, false, false)
	mb := f.mboxes[0]

	conn, err := f.client.Dial(mb.Host.Name(), CtlService)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cid, _, err := attest.Challenge(f.endpoint, f.epShim, conn, true)
	if err != nil {
		t.Fatal(err)
	}

	// Forge the blob host-side with the endpoint's session table: the
	// MAC authenticates, but the plaintext is 80 bytes, not KeysLen.
	forged, err := f.epState.Attest.Seal(core.NewMeter(), cid, make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(forged) == tlslite.KeysLen+sgxcrypto.Overhead {
		t.Fatal("forgery accidentally has the valid length")
	}
	party := "enterprise-client"
	msg := make([]byte, 1+len(party)+len(forged))
	msg[0] = byte(len(party))
	copy(msg[1:], party)
	copy(msg[1+len(party):], forged)

	// The middlebox charges its attestation's closing top-up and EEXIT
	// after the challenger has its ack: settle so they land before pre.
	mb.enclave.Meter().Settle()
	pre := mb.enclave.Meter().Snapshot()
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	// serveCtl closes the connection after the enclave call fails, so a
	// Recv error is both the rejection signal and the sync point.
	if _, err := conn.Recv(); err == nil {
		t.Fatal("wrong-length sealed key block was accepted")
	}
	if d := mb.enclave.Meter().Snapshot().Sub(pre); d != (core.Tally{SGXU: 2}) {
		t.Fatalf("failed provisioning charged %+v, want exactly {SGXU:2} (the crossing pair)", d)
	}
}

// TestMCTLSAcceptKeysWrongLengthChargesNothing is the same property on
// the mcTLS comparison path: after a legitimate provisioning has cached
// the channel, an authentic-but-wrong-length sealed block must be
// rejected with zero charge on the box's meter.
func TestMCTLSAcceptKeysWrongLengthChargesNothing(t *testing.T) {
	setup := core.NewMeter()
	box, err := NewMCTLSBox(setup, "mc0", testPatterns, false)
	if err != nil {
		t.Fatal(err)
	}
	ep := NewMCTLSEndpoint("client")
	if err := ep.Provision(setup, box, tlslite.Keys{}); err != nil {
		t.Fatal(err)
	}

	// The endpoint's cached channel seals an authentic blob around a
	// wrong-length plaintext.
	ep.mu.Lock()
	ch := ep.channels[box.Name]
	ep.mu.Unlock()
	forged, err := ch.Seal(setup, make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}

	m := core.NewMeter()
	if err := box.acceptKeys(m, "client", forged); err == nil {
		t.Fatal("wrong-length mcTLS key block was accepted")
	}
	if d := m.Snapshot(); d != (core.Tally{}) {
		t.Fatalf("failed acceptKeys charged %+v, want zero", d)
	}
	if len(box.keyring) != 1 {
		t.Fatalf("keyring has %d entries, want the 1 legitimate block", len(box.keyring))
	}
}
