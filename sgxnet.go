package sgxnet

import (
	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
)

// The facade re-exports the library's primary types so applications read
// naturally against one import, while the implementations stay in
// focused internal packages.

type (
	// Platform is a simulated SGX machine: CPU-held secrets, an EPC, and
	// launched enclaves.
	Platform = core.Platform
	// PlatformConfig parameterizes a platform.
	PlatformConfig = core.PlatformConfig
	// Enclave is a measured, isolated execution container.
	Enclave = core.Enclave
	// Env is the trusted-side view an enclave handler receives.
	Env = core.Env
	// Program is the code loaded into an enclave; its Image() is the
	// measured identity.
	Program = core.Program
	// Handler is an enclave entry point.
	Handler = core.Handler
	// Signer holds an enclave-signing key (MRSIGNER identity).
	Signer = core.Signer
	// Measurement is a SHA-256 enclave or signer identity.
	Measurement = core.Measurement
	// Meter tallies SGX(U) and normal instructions.
	Meter = core.Meter
	// Tally is a Meter snapshot.
	Tally = core.Tally

	// Network is the in-memory network substrate.
	Network = netsim.Network
	// Host is a machine on the network.
	Host = netsim.SimHost
	// Conn is a reliable bidirectional connection.
	Conn = netsim.Conn
	// IOShim bridges enclave OCALLs to the network.
	IOShim = netsim.IOShim
	// MultiHost routes OCALLs to mounted host services by prefix.
	MultiHost = netsim.MultiHost

	// Quote is a signed remote-attestation statement.
	Quote = attest.Quote
	// Identity is an attested enclave identity.
	Identity = attest.Identity
	// AttestPolicy is a challenger's quote-acceptance policy.
	AttestPolicy = attest.Policy
	// AttestAgent is a host's quoting-enclave runtime.
	AttestAgent = attest.Agent
	// TargetState is the in-enclave state of an attestation target.
	TargetState = attest.TargetState
	// ChallengerState is the in-enclave state of an attestation
	// challenger.
	ChallengerState = attest.ChallengerState
	// Session is an attested session (peer identity + secure channel).
	Session = attest.Session
)

// NewNetwork creates an empty simulated network. Close it once done
// with, so the goroutines serving its hosts return.
func NewNetwork() *Network { return netsim.New() }

// NewArchSigner generates the architectural ("Intel") signer that
// provisions quoting enclaves. One per simulated world.
func NewArchSigner() (*Signer, error) { return core.NewSigner() }

// NewSigner generates an enclave-signing keypair.
func NewSigner() (*Signer, error) { return core.NewSigner() }

// NewSGXHost adds an SGX-enabled host to the network: a platform
// provisioned with the architectural signer and a running quoting
// enclave, ready to serve remote attestations.
func NewSGXHost(net *Network, name string, arch *Signer) (*Host, error) {
	host, _, err := attest.NewSGXHost(net, name, arch)
	return host, err
}

// NewPlainHost adds a host without SGX (baseline machines, web servers).
func NewPlainHost(net *Network, name string) (*Host, error) {
	return net.AddHost(name, core.PlatformConfig{})
}

// MeasureProgram computes the MRENCLAVE a program will have when
// launched — what verifiers whitelist (the deterministic-build
// assumption of the paper's §4).
func MeasureProgram(p *Program) Measurement { return core.MeasureProgram(p) }

// AddTargetHandlers mounts the attestation-target role on a program.
func AddTargetHandlers(p *Program, st *TargetState) { attest.AddTargetHandlers(p, st) }

// AddChallengerHandlers mounts the attestation-challenger role.
func AddChallengerHandlers(p *Program, st *ChallengerState) { attest.AddChallengerHandlers(p, st) }

// NewTargetState creates attestation-target state.
func NewTargetState() *TargetState { return attest.NewTargetState() }

// NewChallengerState creates challenger state with the given policy.
func NewChallengerState(p AttestPolicy) *ChallengerState { return attest.NewChallengerState(p) }

// NewMsgShim creates a control-plane OCALL shim charging I/O costs to
// the meter.
func NewMsgShim(h *Host, m *Meter) *IOShim { return netsim.NewMsgShim(h, m) }

// NewIOShim creates the data-plane OCALL shim (per-packet enclave
// boundary costs, Table 2 model).
func NewIOShim(h *Host, m *Meter) *IOShim { return netsim.NewIOShim(h, m) }

// Challenge drives the challenger side of a remote attestation over
// conn; on success the enclave holds a Session for the returned connID.
func Challenge(enc *Enclave, shim *IOShim, conn *Conn, wantDH bool) (uint32, Identity, error) {
	return attest.Challenge(nil, "", enc, shim, conn, wantDH)
}

// Respond drives the target side of a remote attestation over conn.
func Respond(enc *Enclave, shim *IOShim, host *Host, conn *Conn) (uint32, error) {
	return attest.Respond(nil, "", enc, shim, host, conn)
}

// CyclesOf converts an instruction tally to estimated CPU cycles with
// the paper's formula (10,000 cycles per SGX(U) instruction + 1.8 per
// normal instruction).
func CyclesOf(sgxU, normal uint64) uint64 { return core.CyclesOf(sgxU, normal) }
