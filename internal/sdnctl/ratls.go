package sdnctl

import (
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/ratls"
)

// Attested controller↔AS channels (DESIGN.md §15). The RA-TLS variant
// of the deployment has the controller enclave mint a certificate at
// launch — its channel key quoted by the controller host's quoting
// infrastructure — and every AS-local controller admit that certificate
// through a shared verification cache before dialing. The first AS pays
// one full verification (two signature checks); the other N−1 hit the
// warm path at core.CostQuoteCacheLookup each, which is the
// amortization the -ratls-sweep quantifies.

// ControllerProgramRATLS is ControllerProgram plus the RA-TLS subject
// handlers. The handlers participate in the measurement, so the RATLS
// deployment pins a distinct identity — a build without certificate
// support cannot masquerade as one with it.
func ControllerProgramRATLS(st *ControllerState) *core.Program {
	prog := ControllerProgram(st)
	ratls.AddSubjectHandlers(prog)
	return prog
}

// ControllerMeasurementRATLS is the identity AS-local controllers pin
// in the RATLS deployment.
func ControllerMeasurementRATLS(n int) core.Measurement {
	return core.MeasureProgram(ControllerProgramRATLS(NewControllerState(n)))
}

// LaunchControllerRATLS launches the controller with certificate
// support measured in.
func LaunchControllerRATLS(host *netsim.SimHost, signer *core.Signer, n int) (*Controller, error) {
	st := NewControllerState(n)
	return launchController(host, signer, st, ControllerProgramRATLS(st))
}

// certInvalidator adapts an AS-local controller's re-establishment hook
// to the verification cache: when the attested channel dies, the cached
// verdict for the controller's certificate dies with it, so the fresh
// attestation cannot be satisfied by a stale cache entry.
type certInvalidator struct {
	v    *ratls.Verifier
	cert []byte
}

func (ci certInvalidator) InvalidatePeer(uint32) { ci.v.Invalidate(ci.cert) }
