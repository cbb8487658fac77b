// Package ratls implements attested channels in the RA-TLS style: a TLS
// certificate that carries an EREPORT-derived quote, so the handshake
// itself proves the peer's channel key terminates inside a whitelisted
// enclave. It extends the paper (DESIGN.md §15): NF-chain hop admission
// (internal/nfchain) uses it, and the -ratls-sweep prices it. The
// expensive step is not the TLS key exchange but the quote verification
// every new connection would otherwise repeat. A sharded verification
// cache (verifier.go) amortizes that: N connections presenting the same
// certificate cost one full verification plus N−1 cache lookups.
package ratls

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/sgxcrypto"
)

const (
	// certMagic versions the fixed certificate layout.
	certMagic = "sgxnet-ratls-cert-v1"
	// bindingLabel domain-separates the report data that ties the
	// channel key and instance ID into the quote.
	bindingLabel = "sgxnet-ratls-v1"
	// popLabel domain-separates the proof-of-possession signature.
	popLabel = "sgxnet-ratls-pop-v1"
)

// CertSize is the exact wire size of a certificate: magic(20) ‖ pub(32)
// ‖ instanceID(16) ‖ MRENCLAVE(32) ‖ MRSIGNER(32) ‖ debug(1) ‖
// quoteData(64) ‖ platformPub(32) ‖ quoteSig(64) ‖ popSig(64).
const CertSize = len(certMagic) + 32 + 16 + 32 + 32 + 1 + 64 + 32 + 64 + 64

// Certificate is an RA-TLS certificate: an ed25519 channel key, a
// per-instance identifier, and a quote whose report data binds both —
// so presenting the certificate proves the key belongs to the attested
// enclave instance, not to a man in the middle who verified it once.
type Certificate struct {
	// Pub is the channel public key the certificate attests.
	Pub ed25519.PublicKey
	// InstanceID identifies the enclave *instance* (derived inside the
	// enclave from its seal key and launch ID). Two relays presenting
	// the same InstanceID are one enclave registering twice — the Sybil
	// re-registration the verifier rejects.
	InstanceID [16]byte
	// Quote is the platform-signed attestation; Quote.Data must equal
	// BindingData(Pub, InstanceID).
	Quote attest.Quote
	// PopSig is the proof of possession: a self-signature over the key
	// and instance ID with the private half of Pub.
	PopSig []byte
}

// BindingData is the report data a subject enclave binds into its
// EREPORT: a digest of the channel key and instance ID, so the quote
// attests this exact certificate and nothing else.
func BindingData(pub ed25519.PublicKey, instanceID [16]byte) core.ReportData {
	b := make([]byte, 0, len(bindingLabel)+32+16)
	b = append(b, bindingLabel...)
	b = append(b, pub...)
	b = append(b, instanceID[:]...)
	return core.ReportDataFrom(b)
}

// popBody is the byte string the certificate key self-signs.
func popBody(pub ed25519.PublicKey, instanceID [16]byte) []byte {
	b := make([]byte, 0, len(popLabel)+32+16)
	b = append(b, popLabel...)
	b = append(b, pub...)
	b = append(b, instanceID[:]...)
	return b
}

// Marshal serializes the certificate into its fixed layout.
func (c *Certificate) Marshal() []byte {
	out := make([]byte, 0, CertSize)
	out = append(out, certMagic...)
	out = append(out, c.Pub...)
	out = append(out, c.InstanceID[:]...)
	out = append(out, c.Quote.Identity.MREnclave[:]...)
	out = append(out, c.Quote.Identity.MRSigner[:]...)
	if c.Quote.Identity.Debug {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, c.Quote.Data[:]...)
	out = append(out, c.Quote.PlatformPub...)
	out = append(out, c.Quote.Sig...)
	out = append(out, c.PopSig...)
	return out
}

// Unmarshal strictly parses a certificate: exact length, exact magic,
// and a canonical debug byte. Anything else is rejected before any
// cryptography runs.
func Unmarshal(raw []byte) (*Certificate, error) {
	if len(raw) != CertSize {
		return nil, fmt.Errorf("ratls: certificate is %d bytes, want %d", len(raw), CertSize)
	}
	if string(raw[:len(certMagic)]) != certMagic {
		return nil, fmt.Errorf("ratls: bad certificate magic")
	}
	p := len(certMagic)
	c := &Certificate{Pub: append(ed25519.PublicKey(nil), raw[p:p+32]...)}
	p += 32
	copy(c.InstanceID[:], raw[p:p+16])
	p += 16
	copy(c.Quote.Identity.MREnclave[:], raw[p:p+32])
	p += 32
	copy(c.Quote.Identity.MRSigner[:], raw[p:p+32])
	p += 32
	switch raw[p] {
	case 0:
	case 1:
		c.Quote.Identity.Debug = true
	default:
		return nil, fmt.Errorf("ratls: non-canonical debug byte %#x", raw[p])
	}
	p++
	copy(c.Quote.Data[:], raw[p:p+64])
	p += 64
	c.Quote.PlatformPub = append([]byte(nil), raw[p:p+32]...)
	p += 32
	c.Quote.Sig = append([]byte(nil), raw[p:p+64]...)
	p += 64
	c.PopSig = append([]byte(nil), raw[p:p+64]...)
	return c, nil
}

// HandlerReport is the ECALL AddSubjectHandlers installs: it derives the
// enclave's channel key and instance ID and EREPORTs them at the minter.
const HandlerReport = "ratls.report"

// reportRespLen is report(177) ‖ pub(32) ‖ instanceID(16) ‖ popSig(64).
const reportRespLen = 177 + 32 + 16 + 64

// AddSubjectHandlers adds the certificate-request handler to a program.
// It participates in the program's measurement, so deployments that
// enable RA-TLS whitelist the measurement of the program *with* these
// handlers — exactly like attest.AddTargetHandlers.
func AddSubjectHandlers(prog *core.Program) {
	prog.Handlers[HandlerReport] = subjectReport
}

// subjectReport runs inside the subject enclave. The channel key is
// derived from the seal key (EGETKEY) — deterministic for the enclave
// identity and never visible to the host — and the instance ID from the
// seal key plus the launch ID, so each live instance registers exactly
// one identity. It returns report ‖ pub ‖ instanceID ‖ popSig.
func subjectReport(env *core.Env, arg []byte) ([]byte, error) {
	k, err := env.GetKey(core.KeySealEnclave)
	if err != nil {
		return nil, err
	}
	seed := sha256.Sum256(append([]byte("sgxnet-ratls-key:"), k[:]...))
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub := priv.Public().(ed25519.PublicKey)

	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(env.Enclave().ID()))
	ih := sha256.Sum256(append(append([]byte("sgxnet-ratls-instance:"), k[:]...), idb[:]...))
	var inst [16]byte
	copy(inst[:], ih[:16])

	rep := env.EReport(core.TargetInfo{Measurement: MinterMeasurement()}, BindingData(pub, inst))
	pop := sgxcrypto.Sign(env.Meter(), priv, popBody(pub, inst))

	out := make([]byte, 0, reportRespLen)
	out = append(out, rep.Marshal()...)
	out = append(out, pub...)
	out = append(out, inst[:]...)
	out = append(out, pop...)
	return out, nil
}
