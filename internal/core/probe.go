package core

import "sync/atomic"

// Observability hook. A Probe receives fine-grained notifications about
// the modelled SGX instruction stream and platform lifecycle events —
// which ENCLU leaf ran, how many EPC pages were added, when a page was
// evicted — so a metrics layer can explain *where* a Meter's totals came
// from. The Meter itself stays the single source of truth for the
// paper's tables; probes only decompose, never charge.
//
// The interface is deliberately structural (one method) so that
// observability packages can satisfy it without core importing them;
// internal/obs.Registry is the canonical implementation.
//
// Probes must be safe for concurrent use. A nil probe (the default) is
// free: every call site is a single atomic load and a branch, which is
// what keeps the tracing-disabled overhead (bench/'s
// obs.trace_overhead_pct) small.

// Probe observes named occurrences: kind is a stable dotted name (e.g.
// "sgx.instr.EENTER", "epc.ewb", "enclave.alloc"), n the occurrence
// count being reported.
type Probe interface {
	Observe(kind string, n uint64)
}

// Stable kind names reported by the platform. Instruction kinds carry
// the "sgx.instr." prefix so a metrics consumer can sum the SGX(U)
// stream by leaf function.
const (
	KindEENTER  = "sgx.instr.EENTER"
	KindEEXIT   = "sgx.instr.EEXIT"
	KindERESUME = "sgx.instr.ERESUME"
	KindEGETKEY = "sgx.instr.EGETKEY"
	KindEREPORT = "sgx.instr.EREPORT"
	KindECREATE = "sgx.instr.ECREATE"
	KindEADD    = "sgx.instr.EADD"
	KindEEXTEND = "sgx.instr.EEXTEND"
	KindEINIT   = "sgx.instr.EINIT"
	KindEWB     = "sgx.instr.EWB"
	KindELDU    = "sgx.instr.ELDU"

	KindEnclaveCall  = "enclave.call"
	KindEnclaveOCall = "enclave.ocall"
	KindEnclaveAlloc = "enclave.alloc"
	KindSeal         = "enclave.seal"
	KindUnseal       = "enclave.unseal"
	KindPageAdd      = "epc.page_add"
	KindPageEvict    = "epc.ewb"
	KindPageLoad     = "epc.eldu"

	// KindPacketCrossing is one packet crossing the enclave boundary by
	// itself, SGXInstIOPerPacket SGX(U) each (Table 2). The data-plane
	// I/O shim (internal/netsim) reports it where it makes that charge;
	// with the kinds above it decomposes an I/O enclave's SGX(U):
	// EENTER + EEXIT + ERESUME + SGXInstIOPerPacket × packets, plus
	// SGXInstRingDrain per xcall drain.
	KindPacketCrossing = "enclave.packet"

	// Pager events (EPC oversubscription layer). Fault/hit decompose
	// every pager access; evict/reload/demand_zero decompose how faults
	// were served. Counter identities a metrics consumer can check:
	// pager.fault = pager.reload + pager.demand_zero, and pager.evict ≤
	// pager.fault.
	KindPagerFault      = "pager.fault"
	KindPagerHit        = "pager.hit"
	KindPagerEvict      = "pager.evict"
	KindPagerReload     = "pager.reload"
	KindPagerDemandZero = "pager.demand_zero"
)

// probeHolder wraps a Probe so a nil interface and an absent probe look
// identical through an atomic.Pointer.
type probeHolder struct{ p Probe }

// defaultProbe is inherited by platforms at creation time, so a single
// SetDefaultProbe call before a scenario runs covers every platform the
// scenario builds — the eval rigs construct platforms internally and
// need no per-rig wiring. Set it before creating platforms; it does not
// retroactively attach to existing ones (use Platform.SetProbe there).
var defaultProbe atomic.Pointer[probeHolder]

// SetDefaultProbe installs the process-wide probe that platforms
// created from now on inherit. Pass nil to clear it. Intended for CLI
// entry points and serial tests, not for concurrent scenario setup.
func SetDefaultProbe(pr Probe) {
	if pr == nil {
		defaultProbe.Store(nil)
		return
	}
	defaultProbe.Store(&probeHolder{p: pr})
}

// SetProbe installs (or, with nil, removes) the platform's probe. The
// probe also covers the platform's EPC paging events. Safe to call
// concurrently with running enclaves; notifications race only against
// each other, never against meter charges.
func (p *Platform) SetProbe(pr Probe) {
	if pr == nil {
		p.probe.Store(nil)
		p.epc.probe.Store(nil)
		return
	}
	h := &probeHolder{p: pr}
	p.probe.Store(h)
	p.epc.probe.Store(h)
}

// Probe returns the platform's installed probe, or nil. Subsystems
// layered above core (e.g. internal/xcall's switchless rings) use this
// to report their own kinds through the same stream that carries the
// platform's instruction decomposition.
func (p *Platform) Probe() Probe {
	if h := p.probe.Load(); h != nil {
		return h.p
	}
	return nil
}

// observe notifies the installed probe, if any.
func (p *Platform) observe(kind string, n uint64) {
	if h := p.probe.Load(); h != nil {
		h.p.Observe(kind, n)
	}
}

// observe notifies the EPC's probe (shared with the owning platform).
func (e *EPC) observe(kind string, n uint64) {
	if h := e.probe.Load(); h != nil {
		h.p.Observe(kind, n)
	}
}
