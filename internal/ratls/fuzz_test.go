package ratls

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
)

// FuzzRATLSCert fuzzes the full admission path — parse, binding check,
// both signature verifications, policy, instance registration — with
// arbitrary certificate bytes. Invariants:
//
//   - Admit never panics;
//   - only the byte-exact genuine certificate is admitted (any mutation
//     must be rejected — no malleability);
//   - a rejected admission never charges more than one full
//     verification's worth of instructions;
//   - a genuine certificate replayed under a second peer name is
//     rejected (instance-ID Sybil defense).
//
// Seeds cover the interesting mutations: truncation, a flipped quote
// signature (the MAC-flip analog), a wrong MRENCLAVE, and a corrupted
// binding. testdata/fuzz holds structural probes.
var (
	fuzzOnce    sync.Once
	fuzzRaw     []byte
	fuzzMR      core.Measurement
	fuzzSetupOK bool
)

func fuzzSetup() {
	fuzzOnce.Do(func() {
		arch, err := core.NewSigner()
		if err != nil {
			return
		}
		plat, err := core.NewPlatform("ratls-fuzz", core.PlatformConfig{
			EPCFrames: 512, ArchSigner: arch.MRSigner(), Seed: []byte("ratls-fuzz"),
		})
		if err != nil {
			return
		}
		mt, err := NewMinter(plat, arch)
		if err != nil {
			return
		}
		signer, err := core.NewSigner()
		if err != nil {
			return
		}
		enc, err := plat.Launch(subjectProgram(), signer)
		if err != nil {
			return
		}
		_, raw, err := mt.Mint(enc)
		if err != nil {
			return
		}
		fuzzRaw, fuzzMR, fuzzSetupOK = raw, enc.MREnclave(), true
	})
}

func FuzzRATLSCert(f *testing.F) {
	fuzzSetup()
	if !fuzzSetupOK {
		f.Fatal("fuzz rig setup failed")
	}
	mut := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), fuzzRaw...)
		mutate(b)
		return b
	}
	f.Add(append([]byte(nil), fuzzRaw...))                      // genuine
	f.Add(fuzzRaw[:CertSize/2])                                 // truncated
	f.Add(mut(func(b []byte) { b[CertSize-128] ^= 1 }))         // quote-sig flip
	f.Add(mut(func(b []byte) { b[CertSize-64] ^= 1 }))          // pop-sig flip
	f.Add(mut(func(b []byte) { b[len(certMagic)+32+16] ^= 1 })) // wrong MRENCLAVE
	f.Add(mut(func(b []byte) { b[len(certMagic)] ^= 1 }))       // broken key binding
	f.Add(mut(func(b []byte) { b[len(certMagic)+32] ^= 1 }))    // replayed-into-new instance ID
	f.Add([]byte(certMagic))                                    // magic only
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSetup()
		pol := attest.Policy{AllowedEnclaves: []core.Measurement{fuzzMR}, RejectDebug: true}
		v := NewVerifier(pol, 2)
		m := core.NewMeter()
		id, err := v.Admit(m, data, "fuzz-peer")
		if err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("rejection without ErrRejected: %v", err)
			}
			if m.Normal() > coldCost() {
				t.Fatalf("reject charged %d, more than a full verification %d", m.Normal(), coldCost())
			}
			return
		}
		// Admission implies a structurally perfect certificate whose
		// quote genuinely verifies and whose identity is whitelisted.
		// (Byte-equality with fuzzRaw is NOT the invariant: fuzz workers
		// run in separate processes whose rigs draw a fresh enclave
		// signer, so a sibling process's genuine certificate is a valid
		// admission here too.)
		if id.MREnclave != fuzzMR {
			t.Fatalf("admitted identity is not the whitelisted build")
		}
		cert, cerr := Unmarshal(data)
		if cerr != nil {
			t.Fatalf("admitted certificate fails strict re-parse: %v", cerr)
		}
		if cert.Quote.Data != BindingData(cert.Pub, cert.InstanceID) {
			t.Fatalf("admitted certificate does not bind its key")
		}
		if !cert.Quote.Verify(core.NewMeter()) {
			t.Fatalf("admitted certificate carries an unverifiable quote")
		}
		// Instance-ID replay: the same certificate under a second peer
		// name must be refused, warm path or cold.
		if _, err := v.Admit(core.NewMeter(), data, "fuzz-peer-2"); !errors.Is(err, ErrRejected) {
			t.Fatalf("instance re-registration admitted (err=%v)", err)
		}
	})
}

// FuzzAdmitFrame fuzzes the gate's admission frame, peerLen(2) ‖ peer ‖
// cert, which both admission gates (GateProgram and the NF chain's
// stages) decode from a host-supplied ECALL argument. Invariants:
//
//   - DecodeAdmit never panics;
//   - a frame it accepts re-encodes to the same bytes, and one it
//     rejects is shorter than its length field says;
//   - any peer the length field holds and any certificate survive
//     EncodeAdmit then DecodeAdmit unchanged.
func FuzzAdmitFrame(f *testing.F) {
	genuine, err := EncodeAdmit("peer-3", []byte("cert"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, "")
	f.Add([]byte{5}, "relay")
	f.Add(genuine, "peer-3")
	f.Add([]byte{0xff, 0xff, 'a'}, "a")
	f.Fuzz(func(t *testing.T, frame []byte, peer string) {
		p, cert, err := DecodeAdmit(frame)
		if err != nil {
			if len(frame) >= 2 && len(frame) >= 2+int(binary.LittleEndian.Uint16(frame)) {
				t.Fatalf("rejected a complete frame: %v", err)
			}
		} else if re, err := EncodeAdmit(p, cert); err != nil || !bytes.Equal(re, frame) {
			t.Fatalf("frame %x decodes to (%q, %x), which encodes to %x, %v", frame, p, cert, re, err)
		}
		if len(peer) > math.MaxUint16 {
			peer = peer[:math.MaxUint16]
		}
		re, err := EncodeAdmit(peer, frame)
		if err != nil {
			t.Fatalf("refused a %d-byte peer: %v", len(peer), err)
		}
		p, cert, err = DecodeAdmit(re)
		if err != nil || p != peer || !bytes.Equal(cert, frame) {
			t.Fatalf("round trip of (%q, %x): (%q, %x, %v)", peer, frame, p, cert, err)
		}
	})
}

// TestAdmitFrameLongestPeer: a peer of 65,535 bytes, the most the
// length field holds, round-trips with its certificate, and one byte
// more is refused rather than wrapped.
func TestAdmitFrameLongestPeer(t *testing.T) {
	peer := strings.Repeat("p", math.MaxUint16)
	cert := []byte("certificate")
	frame, err := EncodeAdmit(peer, cert)
	if err != nil {
		t.Fatal(err)
	}
	p, c, err := DecodeAdmit(frame)
	if err != nil || p != peer || !bytes.Equal(c, cert) {
		t.Fatalf("got (%d-byte peer, %q, %v), want the %d-byte peer and %q", len(p), c, err, len(peer), cert)
	}
	if frame, err := EncodeAdmit(peer+"p", cert); err == nil {
		t.Fatalf("encoded a %d-byte peer into a %d-byte frame", len(peer)+1, len(frame))
	}
}
