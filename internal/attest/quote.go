// Package attest implements SGX attestation as the paper uses it (§2.2):
// local (intra-platform) attestation via EREPORT/EGETKEY, remote
// attestation through a quoting enclave that signs REPORTs with the
// platform attestation key, and the bootstrap of a secure channel by
// embedding Diffie-Hellman material in the attestation messages ("similar
// to TLS handshaking").
//
// The remote protocol follows Figure 1:
//
//	challenger                    target                quoting enclave
//	    │── 1 challenge (nonce) ──▶ │                         │
//	    │                           │── 2 REPORT ────────────▶│ verify REPORT
//	    │                           │                         │ (intra-attestation)
//	    │                           │◀─ 3 QUOTE + REPORT_Q ───│ sign with CPU key
//	    │◀─ 4 QUOTE, platform pub, ─│  verify REPORT_Q        │
//	    │     DH params + pub       │  (mutual intra-attest.) │
//	    │── 5 confirm (DH pub, ────▶│                         │
//	    │     key confirmation)     │                         │
//	    │◀─ 6 ack (sealed "OK") ────│                         │
//
// Instruction accounting reproduces Table 1: the SGX(U) instruction trace
// of each role and the normal-instruction totals (the protocol-skeleton
// residual is topped up to the calibrated per-role base so tallies match
// the paper's measurements; the Diffie-Hellman costs are charged by the
// metered crypto operations themselves and dominate, as in §5).
package attest

import (
	"bytes"
	"crypto/ed25519"

	"sgxnet/internal/core"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/wire"
)

// Identity is the attested identity of an enclave.
type Identity struct {
	MREnclave core.Measurement
	MRSigner  core.Measurement
	Debug     bool
}

// IdentityOf extracts the identity of a live enclave (used when the
// verifier knows the expected program and computes its measurement
// locally — the paper's "deterministic compilation" assumption, §4).
func IdentityOf(e *core.Enclave) Identity {
	return Identity{MREnclave: e.MREnclave(), MRSigner: e.MRSigner(), Debug: e.Attrs().Debug}
}

// Quote is the quoting enclave's signed attestation of a REPORT: the
// reported identities and user data, signed with the platform attestation
// key (EPID in real SGX; see DESIGN.md).
type Quote struct {
	Identity    Identity
	Data        core.ReportData
	PlatformPub []byte // ed25519.PublicKey
	Sig         []byte
}

// SignedBody is the byte string the platform attestation key signs:
// a version label, the reported identity, the user data, and the
// platform public key. Exported for the RA-TLS minter and verifier
// (internal/ratls), which play the quoting enclave's and challenger's
// roles for certificate-embedded quotes.
func (q *Quote) SignedBody() []byte {
	var buf bytes.Buffer
	buf.WriteString("sgxnet-quote-v1")
	buf.Write(q.Identity.MREnclave[:])
	buf.Write(q.Identity.MRSigner[:])
	if q.Identity.Debug {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	buf.Write(q.Data[:])
	buf.Write(q.PlatformPub)
	return buf.Bytes()
}

// Verify checks the quote's signature with the embedded platform key and
// reports whether it is internally consistent. Trust in the platform key
// itself is a separate policy decision (see Policy.TrustPlatform).
func (q *Quote) Verify(m *core.Meter) bool {
	if len(q.PlatformPub) != ed25519.PublicKeySize {
		return false
	}
	return sgxcrypto.Verify(m, ed25519.PublicKey(q.PlatformPub), q.SignedBody(), q.Sig)
}

// Policy is the challenger's acceptance policy for a quote.
type Policy struct {
	// AllowedEnclaves, if non-empty, whitelists MRENCLAVE values (the
	// community-verified program identities, §3.2).
	AllowedEnclaves []core.Measurement
	// AllowedSigners, if non-empty, whitelists MRSIGNER values (e.g. the
	// Tor foundation's signing key, §3.2).
	AllowedSigners []core.Measurement
	// RejectDebug refuses debug enclaves.
	RejectDebug bool
	// TrustPlatform, if non-nil, decides whether a platform attestation
	// key is genuine (the role Intel's verification service plays). Nil
	// trusts any well-signed quote.
	TrustPlatform func(pub ed25519.PublicKey) bool
}

// ErrPolicy describes a quote rejected by policy.
type ErrPolicy struct{ Reason string }

func (e *ErrPolicy) Error() string { return "attest: policy rejected quote: " + e.Reason }

// Check evaluates the policy against a verified quote.
func (p *Policy) Check(q *Quote) error {
	if p.RejectDebug && q.Identity.Debug {
		return &ErrPolicy{"debug enclave"}
	}
	if len(p.AllowedEnclaves) > 0 && !containsMeasurement(p.AllowedEnclaves, q.Identity.MREnclave) {
		return &ErrPolicy{"MRENCLAVE not in allowed set (tampered or unknown program)"}
	}
	if len(p.AllowedSigners) > 0 && !containsMeasurement(p.AllowedSigners, q.Identity.MRSigner) {
		return &ErrPolicy{"MRSIGNER not in allowed set"}
	}
	if p.TrustPlatform != nil && !p.TrustPlatform(ed25519.PublicKey(q.PlatformPub)) {
		return &ErrPolicy{"untrusted platform attestation key"}
	}
	return nil
}

func containsMeasurement(set []core.Measurement, m core.Measurement) bool {
	for _, x := range set {
		if x == m {
			return true
		}
	}
	return false
}

// Wire messages, encoded by the wire codec.

// MsgChallenge is message 1: the challenger's attestation request.
type MsgChallenge struct {
	Nonce  [32]byte
	WantDH bool
}

// MsgEvidence is message 4: QUOTE, platform public key, and (w/ DH) the
// target-generated group parameters and the target's public value.
type MsgEvidence struct {
	Quote     Quote
	DHPrime   []byte // nil when DH not requested
	DHGen     []byte
	TargetPub []byte
}

// MsgConfirm is message 5: the challenger's DH public value plus key
// confirmation (w/ DH), or a plain acknowledgement (w/o DH).
type MsgConfirm struct {
	ChallengerPub []byte
	KeyConfirm    []byte // channel-sealed confirmation, empty w/o DH
}

// MsgAck is message 6: the target's sealed acknowledgement.
type MsgAck struct {
	Ack []byte
	Err string
}

func init() {
	wire.Pin(MsgChallenge{}, MsgEvidence{}, MsgConfirm{}, MsgAck{}, msgQuoteResp{})
}
