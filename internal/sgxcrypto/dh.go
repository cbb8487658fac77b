// Package sgxcrypto provides the metered cryptographic primitives the
// paper's prototype uses (polarssl in the original): 1024-bit finite-field
// Diffie-Hellman, AES-128 (ECB, as in the paper's Table 1 setup, plus CTR
// for the record channels), HMAC report MACs, and Ed25519 signatures
// standing in for EPID (see DESIGN.md §1).
//
// Every operation charges its calibrated normal-instruction cost to a
// *core.Meter, so instruction tallies reflect where the paper says the
// cycles go (e.g. "the Diffie-Hellman key exchange takes up 90% of the
// cycles", §5).
//
// Three host-side caches save wall clock without changing any output or
// charge: the DH parameter cache (paramcache.go) reuses a found prime,
// the fixed-base tables (fixedbase.go) compute g^x about twice as fast
// as big.Int.Exp for the groups a process reuses, and the agreement
// memo (agreememo.go) hands the second end of an in-process agreement
// the secret the first end computed.
package sgxcrypto

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"sgxnet/internal/core"
)

// DHParams is a finite-field Diffie-Hellman group.
type DHParams struct {
	P *big.Int // prime modulus
	G *big.Int // generator
}

// Bits returns the modulus size in bits.
func (p *DHParams) Bits() int { return p.P.BitLen() }

// oakley2 is the 1024-bit MODP group from RFC 2409 §6.2 (Oakley group 2),
// the customary fixed DH-1024 group.
const oakley2Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
	"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
	"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF"

var oakley2P, _ = new(big.Int).SetString(oakley2Hex, 16)

// StandardGroup returns the fixed 1024-bit MODP group. Using a fixed group
// skips parameter generation; the paper's target enclave instead generates
// fresh parameters, which is what makes its "w/ DH" column so expensive.
func StandardGroup() *DHParams {
	return &DHParams{P: new(big.Int).Set(oakley2P), G: big.NewInt(2)}
}

// GenerateParams generates fresh DH parameters of the given size, charging
// the safe-prime-search cost the paper measured (CostDHParamGen for
// 1024-bit parameters, scaled cubically for other sizes). The emulation
// uses a probabilistic prime search — the charged instruction count, not
// the wall clock, is the measured quantity — so system-entropy calls
// (rnd == nil) may satisfy the search from the process-wide parameter
// cache (paramcache.go): the full cost is charged on every call, only
// the redundant wall-clock search is skipped. A caller-supplied rnd
// bypasses the cache and always consumes the reader.
func GenerateParams(m *core.Meter, bits int, rnd io.Reader) (*DHParams, error) {
	if bits < 64 {
		return nil, fmt.Errorf("sgxcrypto: DH modulus %d bits too small", bits)
	}
	m.ChargeNormal(scaleCost(core.CostDHParamGen, bits, 1024, 3))
	useCache := rnd == nil
	if useCache {
		if p, ok := cachedParams(bits); ok {
			return p, nil
		}
		rnd = rand.Reader
	}
	p, err := rand.Prime(rnd, bits)
	if err != nil {
		return nil, fmt.Errorf("sgxcrypto: DH prime: %w", err)
	}
	params := &DHParams{P: p, G: big.NewInt(2)}
	if useCache {
		storeParams(bits, params)
	}
	return params, nil
}

// scaleCost scales a cost calibrated at refBits to bits, with the given
// polynomial degree (modexp is roughly cubic in operand size).
func scaleCost(base uint64, bits, refBits, degree int) uint64 {
	c := float64(base)
	r := float64(bits) / float64(refBits)
	for i := 0; i < degree; i++ {
		c *= r
	}
	if c < 1 {
		c = 1
	}
	return uint64(c)
}

// DHKey is one party's ephemeral DH keypair. Shared works from the
// key's own copies of the group and of Public, so a caller that changes
// Params or Public changes neither the key nor what the agreement memo
// holds.
type DHKey struct {
	Params *DHParams
	Public *big.Int
	x      *big.Int
	p      *big.Int // a copy of Params.P
	id     keyID    // the group and Public as bytes
}

// GenerateKey creates an ephemeral keypair in the group, charging half the
// key-agreement cost (one modular exponentiation). The charge and the
// entropy read are the same whether g^x comes from a fixed-base table or
// from big.Int.Exp.
func GenerateKey(m *core.Meter, params *DHParams, rnd io.Reader) (*DHKey, error) {
	if params == nil || params.P == nil || params.G == nil {
		return nil, errors.New("sgxcrypto: nil DH params")
	}
	if rnd == nil {
		rnd = rand.Reader
	}
	m.ChargeNormal(scaleCost(core.CostDHKeyAgree/2, params.Bits(), 1024, 3))
	// x ∈ [2, P−2]
	max := new(big.Int).Sub(params.P, big.NewInt(3))
	x, err := rand.Int(rnd, max)
	if err != nil {
		return nil, err
	}
	x.Add(x, big.NewInt(2))
	pub := expG(params, x)
	return &DHKey{
		Params: params,
		Public: pub,
		x:      x,
		p:      new(big.Int).Set(params.P),
		id:     keyID{p: string(params.P.Bytes()), g: string(params.G.Bytes()), pub: string(pub.Bytes())},
	}, nil
}

// ErrBadPublic reports an out-of-range peer public value — the sanity
// check the paper's §6 (Iago attacks) demands on externally supplied data.
var ErrBadPublic = errors.New("sgxcrypto: peer DH public value out of range")

// Shared computes the shared secret with the peer's public value, charging
// the other half of the key-agreement cost. The returned secret is the
// SHA-256 of the raw group element, giving a uniform 32-byte key. The
// peer value is checked and the cost charged before the agreement memo
// is read, so a hit charges what a miss does and a rejected value
// neither reads nor writes the memo.
func (k *DHKey) Shared(m *core.Meter, peerPub *big.Int) ([32]byte, error) {
	if peerPub == nil || peerPub.Cmp(big.NewInt(2)) < 0 ||
		peerPub.Cmp(new(big.Int).Sub(k.p, big.NewInt(1))) >= 0 {
		return [32]byte{}, ErrBadPublic
	}
	m.ChargeNormal(scaleCost(core.CostDHKeyAgree/2, k.p.BitLen(), 1024, 3))
	peer := string(peerPub.Bytes())
	if secret, ok := takeAgreement(k.id, peer); ok {
		return secret, nil
	}
	z := new(big.Int).Exp(peerPub, k.x, k.p)
	sharedExps.Add(1)
	secret := sha256.Sum256(z.Bytes())
	storeAgreement(k.id, peer, secret)
	return secret, nil
}
