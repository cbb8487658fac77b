package sgxcrypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"sgxnet/internal/core"
)

// expSecret is the secret Shared must return for k and peer in the
// group with modulus p: the SHA-256 of big.Int.Exp's group element,
// computed here rather than by Shared, whose second end the agreement
// memo serves.
func expSecret(k *DHKey, p, peer *big.Int) [32]byte {
	return sha256.Sum256(new(big.Int).Exp(peer, k.x, p).Bytes())
}

// checkAgreement runs a's and b's Shared, a's first if aFirst and b's
// first otherwise, and checks each secret against expSecret in the group
// with modulus p.
func checkAgreement(m *core.Meter, p *big.Int, a, b *DHKey, aFirst bool) error {
	first, second := a, b
	if !aFirst {
		first, second = b, a
	}
	for i, end := range []struct{ k, peer *DHKey }{{first, second}, {second, first}} {
		got, err := end.k.Shared(m, end.peer.Public)
		if err != nil {
			return err
		}
		if got != expSecret(end.k, p, end.peer.Public) {
			return fmt.Errorf("a first %v: end %d's secret is not Exp's", aFirst, i+1)
		}
	}
	return nil
}

// agree generates two keys in params and checks their agreement.
func agree(m *core.Meter, params *DHParams, aFirst bool) error {
	a, err := GenerateKey(m, params, nil)
	if err != nil {
		return err
	}
	b, err := GenerateKey(m, params, nil)
	if err != nil {
		return err
	}
	return checkAgreement(m, params.P, a, b, aFirst)
}

func TestDHAgreementStandardGroup(t *testing.T) {
	for _, aFirst := range []bool{true, false} {
		m := core.NewMeter()
		if err := agree(m, StandardGroup(), aFirst); err != nil {
			t.Fatal(err)
		}
		// 2 keygens + 2 shared = 2 full agreements = 2 × CostDHKeyAgree.
		if got := m.Normal(); got != 2*core.CostDHKeyAgree {
			t.Fatalf("charged %d, want %d", got, 2*core.CostDHKeyAgree)
		}
	}
}

func TestDHAgreementProperty(t *testing.T) {
	for _, tc := range reusedGroups {
		t.Run(tc.name, func(t *testing.T) {
			params := tc.params(t)
			m := core.NewMeter()
			for i := 0; i < 8; i++ {
				if err := agree(m, params, i%2 == 0); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDHRejectsBadPublic: an out-of-range peer value is rejected before
// the agreement memo is read or written, and charges nothing. Each bad
// value but nil finds a planted entry that a lookup would hit; the
// entries must stay.
func TestDHRejectsBadPublic(t *testing.T) {
	freshMemo(t)
	g := StandardGroup()
	k, err := GenerateKey(core.NewMeter(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(g.P, big.NewInt(1)),
		new(big.Int).Add(g.P, big.NewInt(5)),
	}
	for _, v := range bad {
		storeAgreement(keyID{p: k.id.p, g: k.id.g, pub: string(v.Bytes())}, k.id.pub, [32]byte{1})
	}
	exps := sharedExps.Load()
	for _, v := range append(bad, nil) {
		m := core.NewMeter()
		if _, err := k.Shared(m, v); err != ErrBadPublic {
			t.Fatalf("public %v accepted (err=%v)", v, err)
		}
		if m.Snapshot() != (core.Tally{}) {
			t.Fatalf("public %v: a rejection charged %+v", v, m.Snapshot())
		}
	}
	if n := memoLen(); n != len(bad) {
		t.Fatalf("the memo holds %d entries, want the %d planted", n, len(bad))
	}
	if got := sharedExps.Load() - exps; got != 0 {
		t.Fatalf("rejections ran %d Exps", got)
	}
}

func TestGenerateParamsChargesAndWorks(t *testing.T) {
	m := core.NewMeter()
	p, err := GenerateParams(m, 256, rand.Reader) // small for test speed
	if err != nil {
		t.Fatal(err)
	}
	if !p.P.ProbablyPrime(20) {
		t.Fatal("modulus not prime")
	}
	if m.Normal() == 0 {
		t.Fatal("param generation charged nothing")
	}
	// At the calibration point the charge equals the paper's constant.
	m2 := core.NewMeter()
	if _, err := GenerateParams(m2, 1024, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if m2.Normal() != core.CostDHParamGen {
		t.Fatalf("1024-bit param gen charged %d, want %d", m2.Normal(), core.CostDHParamGen)
	}
	if _, err := GenerateParams(m, 8, nil); err == nil {
		t.Fatal("tiny modulus accepted")
	}
}

func TestScaleCost(t *testing.T) {
	if got := scaleCost(1000, 1024, 1024, 3); got != 1000 {
		t.Fatalf("identity scale = %d", got)
	}
	if got := scaleCost(1000, 512, 1024, 3); got != 125 {
		t.Fatalf("half-size cubic = %d, want 125", got)
	}
	if got := scaleCost(1, 8, 1024, 3); got != 1 {
		t.Fatalf("floor = %d, want 1", got)
	}
}

func TestAESKeyScheduleCharge(t *testing.T) {
	m := core.NewMeter()
	if _, err := NewAES(m, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if m.Normal() != core.CostAESKeySchedule {
		t.Fatalf("charged %d, want %d", m.Normal(), core.CostAESKeySchedule)
	}
	if _, err := NewAES(m, make([]byte, 8)); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestECBRoundTrip(t *testing.T) {
	m := core.NewMeter()
	c, err := NewAES(m, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{nil, []byte("x"), []byte("exactly 16 bytes"), bytes.Repeat([]byte("p"), 1500)} {
		ct := c.SealECB(m, msg)
		if len(msg) > 0 && bytes.Contains(ct, msg) {
			t.Fatal("ciphertext contains plaintext")
		}
		pt, err := c.OpenECB(m, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("round trip failed for %d bytes", len(msg))
		}
	}
}

func TestECBRejectsBadInput(t *testing.T) {
	m := core.NewMeter()
	c, _ := NewAES(m, make([]byte, 16))
	if _, err := c.OpenECB(m, []byte("short")); err == nil {
		t.Fatal("unaligned ciphertext accepted")
	}
	if _, err := c.OpenECB(m, nil); err == nil {
		t.Fatal("empty ciphertext accepted")
	}
	// Corrupt padding byte.
	ct := c.SealECB(m, []byte("hello"))
	ct[len(ct)-1] ^= 0xff
	if _, err := c.OpenECB(m, ct); err == nil {
		// Corruption may still produce valid-looking padding by chance for
		// a fixed key/plaintext — but with this pair it must not.
		t.Fatal("corrupted padding accepted")
	}
}

func TestECBChargeProportionalToBytes(t *testing.T) {
	m := core.NewMeter()
	c, _ := NewAES(m, make([]byte, 16))
	m.SnapshotAndReset()
	c.SealECB(m, make([]byte, core.MTUBytes))
	perPacket := m.Normal()
	// ~7.6K per MTU packet per the Table 2 calibration.
	if perPacket < 7000 || perPacket > 8100 {
		t.Fatalf("MTU encryption charged %d, want ≈7.6K", perPacket)
	}
}

func TestCTRInvolutive(t *testing.T) {
	m := core.NewMeter()
	c, _ := NewAES(m, []byte("0123456789abcdef"))
	var iv [16]byte
	iv[0] = 9
	msg := []byte("counter mode message")
	ct := make([]byte, len(msg))
	c.XORKeyStreamCTR(m, iv, ct, msg)
	pt := make([]byte, len(ct))
	c.XORKeyStreamCTR(m, iv, pt, ct)
	if !bytes.Equal(pt, msg) {
		t.Fatal("CTR round trip failed")
	}
}

func TestChannelSealOpen(t *testing.T) {
	m := core.NewMeter()
	var secret [32]byte
	copy(secret[:], "shared-secret-from-dh-exchange!!")
	a, err := NewChannel(m, secret)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChannel(m, secret)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("policies: prefer customer routes")
	sealed, err := a.Seal(m, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Open(m, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("channel round trip failed")
	}
}

func TestChannelRejectsTampering(t *testing.T) {
	m := core.NewMeter()
	var secret [32]byte
	ch, _ := NewChannel(m, secret)
	sealed, _ := ch.Seal(m, []byte("payload"))
	for i := 0; i < len(sealed); i += 7 {
		cp := append([]byte{}, sealed...)
		cp[i] ^= 0x01
		if _, err := ch.Open(m, cp); err != ErrChannelAuth {
			t.Fatalf("tamper at byte %d accepted", i)
		}
	}
	if _, err := ch.Open(m, sealed[:10]); err != ErrChannelAuth {
		t.Fatal("truncated message accepted")
	}
}

func TestChannelWrongKeyRejected(t *testing.T) {
	m := core.NewMeter()
	var s1, s2 [32]byte
	s2[0] = 1
	a, _ := NewChannel(m, s1)
	b, _ := NewChannel(m, s2)
	sealed, _ := a.Seal(m, []byte("x"))
	if _, err := b.Open(m, sealed); err != ErrChannelAuth {
		t.Fatal("wrong-key open succeeded")
	}
}

func TestChannelPropertyRoundTrip(t *testing.T) {
	m := core.NewMeter()
	var secret [32]byte
	secret[5] = 42
	ch, err := NewChannel(m, secret)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		sealed, err := ch.Seal(m, msg)
		if err != nil {
			return false
		}
		got, err := ch.Open(m, sealed)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSignVerifyMetered(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMeter()
	msg := []byte("quote body")
	sig := Sign(m, priv, msg)
	if m.Normal() < core.CostSigSign {
		t.Fatal("sign undercharged")
	}
	if !Verify(m, pub, msg, sig) {
		t.Fatal("genuine signature rejected")
	}
	if Verify(m, pub, append(msg, 'x'), sig) {
		t.Fatal("forged message accepted")
	}
}

func TestMACDistinctKeys(t *testing.T) {
	m := core.NewMeter()
	a := MAC(m, []byte("k1"), []byte("data"))
	b := MAC(m, []byte("k2"), []byte("data"))
	c := MAC(m, []byte("k1"), []byte("data"))
	if a == b {
		t.Fatal("different keys produced same MAC")
	}
	if a != c {
		t.Fatal("MAC not deterministic")
	}
}

// TestChannelRejectChargesZero is the validate-then-charge regression
// test for Channel.OpenAppend: a message that fails authentication (or
// framing) must leave the meter untouched — only an authenticated open
// pays the metered MAC and cipher costs.
func TestChannelRejectChargesZero(t *testing.T) {
	setup := core.NewMeter()
	var secret [32]byte
	secret[0] = 7
	ch, err := NewChannel(setup, secret)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := ch.Seal(setup, []byte("trusted payload"))
	if err != nil {
		t.Fatal(err)
	}

	flip := func(i int) []byte {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 1
		return bad
	}
	for name, bad := range map[string][]byte{
		"short":     sealed[:Overhead-1],
		"tag flip":  flip(len(sealed) - 1),
		"body flip": flip(Overhead),
	} {
		m := core.NewMeter()
		if _, err := ch.Open(m, bad); err != ErrChannelAuth {
			t.Fatalf("%s: err = %v, want ErrChannelAuth", name, err)
		}
		if m.Normal() != 0 || m.SGX() != 0 {
			t.Fatalf("%s: rejected open charged normal=%d sgx=%d, want zero", name, m.Normal(), m.SGX())
		}
	}

	// The successful path still pays the full metered bill: one MAC over
	// the body plus the CTR pass over the ciphertext.
	m := core.NewMeter()
	out, err := ch.Open(m, sealed)
	if err != nil || string(out) != "trusted payload" {
		t.Fatalf("genuine open failed: %q %v", out, err)
	}
	body := len(sealed) - 32
	want := core.CostHMAC + uint64(body)*core.CostSHA256PerByte +
		uint64(len(sealed)-Overhead)*core.CostAESBlockPerByte
	if m.Normal() != want {
		t.Fatalf("genuine open charged %d, want %d", m.Normal(), want)
	}
}
