package attest

import (
	"bytes"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/wire"
)

// Fuzzers for everything the attestation protocol deserializes off the
// wire. The invariant is uniform: arbitrary bytes produce an error (or
// an ok=false), never a panic — a malformed message from the network
// adversary must not kill an enclave's host process. Seed corpora are
// checked in under testdata/fuzz; CI runs each target briefly.

// fuzzEvidence builds a structurally valid message 4 for the corpus.
func fuzzEvidence() MsgEvidence {
	q := Quote{
		Identity: Identity{
			MREnclave: core.Measurement{1, 2, 3},
			MRSigner:  core.Measurement{4, 5, 6},
			Debug:     true,
		},
		Data:        core.ReportDataFrom([]byte("corpus")),
		PlatformPub: bytes.Repeat([]byte{7}, 32),
		Sig:         bytes.Repeat([]byte{8}, 64),
	}
	return MsgEvidence{
		Quote:     q,
		DHPrime:   []byte{0xff, 0xfb},
		DHGen:     []byte{2},
		TargetPub: []byte{0x42},
	}
}

// FuzzDecodeEvidence covers the challenger's parse of the QUOTE-bearing
// evidence message: gob decode, signature verification, policy check.
func FuzzDecodeEvidence(f *testing.F) {
	seed, err := wire.Encode(fuzzEvidence())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte{}, seed...), 0xde, 0xad))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xff, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev MsgEvidence
		if err := wire.Decode(data, &ev); err != nil {
			return
		}
		m := core.NewMeter()
		_ = ev.Quote.Verify(m)
		pol := Policy{RejectDebug: true}
		_ = pol.Check(&ev.Quote)
	})
}

// FuzzDecodeChallenge covers the target's parse of message 1.
func FuzzDecodeChallenge(f *testing.F) {
	seed, err := wire.Encode(MsgChallenge{Nonce: [32]byte{9}, WantDH: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c MsgChallenge
		_ = wire.Decode(data, &c)
	})
}

// FuzzDecodeQuoteResp covers the target's parse of the quoting enclave's
// response (message 3): gob decode plus the nested REPORT unmarshal.
func FuzzDecodeQuoteResp(f *testing.F) {
	rep := core.Report{MREnclave: core.Measurement{1}, Data: core.ReportDataFrom([]byte("q"))}
	seed, err := wire.Encode(msgQuoteResp{Quote: fuzzEvidence().Quote, ReportQ: rep.Marshal()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-7])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var qr msgQuoteResp
		if err := wire.Decode(data, &qr); err != nil {
			return
		}
		if r, ok := core.UnmarshalReport(qr.ReportQ); ok {
			// A parse that claims success must survive re-serialization
			// (attribute bytes are normalized, so compare structurally).
			if r2, ok2 := core.UnmarshalReport(r.Marshal()); !ok2 || r2 != r {
				t.Fatalf("report round-trip mismatch")
			}
		}
	})
}

// FuzzUnmarshalReport covers the fixed-layout REPORT parser directly.
func FuzzUnmarshalReport(f *testing.F) {
	rep := core.Report{
		MREnclave:  core.Measurement{0xaa},
		MRSigner:   core.Measurement{0xbb},
		Attributes: core.Attributes{Debug: true, Architectural: true},
		Data:       core.ReportDataFrom([]byte("r")),
		KeyID:      [16]byte{0xcc},
		MAC:        [32]byte{0xdd},
	}
	f.Add(rep.Marshal())
	f.Add(rep.Marshal()[:100])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ok := core.UnmarshalReport(data)
		if !ok {
			return
		}
		if r2, ok2 := core.UnmarshalReport(r.Marshal()); !ok2 || r2 != r {
			t.Fatalf("report round-trip mismatch")
		}
	})
}

// FuzzUnmarshalIdentity covers the identity blob handed back to
// untrusted application code after a successful attestation.
func FuzzUnmarshalIdentity(f *testing.F) {
	f.Add(marshalIdentity(Identity{MREnclave: core.Measurement{1}, Debug: true}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xee}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, ok := UnmarshalIdentity(data)
		if !ok {
			return
		}
		if id2, ok2 := UnmarshalIdentity(marshalIdentity(id)); !ok2 || id2 != id {
			t.Fatalf("identity round-trip mismatch")
		}
	})
}
