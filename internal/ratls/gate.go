package ratls

import (
	"encoding/binary"
	"fmt"
	"math"

	"sgxnet/internal/core"
)

// GateService is the ECALL name GateProgram serves admissions on.
const GateService = "ratls.admit"

// EncodeAdmit frames a gate ECALL argument: peerLen(2) ‖ peer ‖ cert.
// It refuses a peer of more than 65,535 bytes, which the length field
// cannot hold.
func EncodeAdmit(peer string, cert []byte) ([]byte, error) {
	if len(peer) > math.MaxUint16 {
		return nil, fmt.Errorf("ratls: admit peer of %d bytes exceeds %d", len(peer), math.MaxUint16)
	}
	out := make([]byte, 2, 2+len(peer)+len(cert))
	binary.LittleEndian.PutUint16(out, uint16(len(peer)))
	out = append(out, peer...)
	out = append(out, cert...)
	return out, nil
}

// DecodeAdmit parses an EncodeAdmit frame. cert aliases arg.
func DecodeAdmit(arg []byte) (peer string, cert []byte, err error) {
	if len(arg) < 2 {
		return "", nil, fmt.Errorf("ratls: short admit arg")
	}
	n := 2 + int(binary.LittleEndian.Uint16(arg))
	if len(arg) < n {
		return "", nil, fmt.Errorf("ratls: truncated admit peer")
	}
	return string(arg[2:n]), arg[n:], nil
}

// GateProgram hosts a verifier inside an enclave: each admission is one
// ECALL, so the verifying endpoint itself runs under SGX and every
// connection pays the EENTER/EEXIT crossing on top of the verification
// — the deployment shape of an SGX directory authority or controller.
// The handler returns MRENCLAVE ‖ MRSIGNER of the admitted peer.
func GateProgram(v *Verifier) *core.Program {
	return &core.Program{
		Name:    "ratls-gate",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			GateService: func(env *core.Env, arg []byte) ([]byte, error) {
				peer, cert, err := DecodeAdmit(arg)
				if err != nil {
					return nil, err
				}
				id, err := v.Admit(env.Meter(), cert, peer)
				if err != nil {
					return nil, err
				}
				out := make([]byte, 0, 64)
				out = append(out, id.MREnclave[:]...)
				out = append(out, id.MRSigner[:]...)
				return out, nil
			},
		},
	}
}
