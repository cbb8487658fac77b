package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// A Meter tallies the two quantities the paper's evaluation is built on:
// SGX usermode instructions and normal instructions. Meters are safe for
// concurrent use; every enclave owns one, and hosts aggregate them.
type Meter struct {
	sgxU   atomic.Uint64
	normal atomic.Uint64

	// running counts enclave calls charging this meter that are not
	// parked waiting for input; see Settle.
	running atomic.Int64
}

// NewMeter returns a zeroed Meter. The zero value is also ready to use.
func NewMeter() *Meter { return &Meter{} }

// ChargeSGX records n SGX usermode instructions.
func (m *Meter) ChargeSGX(n uint64) {
	if m == nil {
		return
	}
	m.sgxU.Add(n)
}

// ChargeNormal records n normal instructions.
func (m *Meter) ChargeNormal(n uint64) {
	if m == nil {
		return
	}
	m.normal.Add(n)
}

// SGX returns the SGX usermode instruction count so far.
func (m *Meter) SGX() uint64 {
	if m == nil {
		return 0
	}
	return m.sgxU.Load()
}

// Normal returns the normal instruction count so far.
func (m *Meter) Normal() uint64 {
	if m == nil {
		return 0
	}
	return m.normal.Load()
}

// Cycles returns the estimated CPU cycles for the current tallies using the
// paper's conversion formula.
func (m *Meter) Cycles() uint64 { return CyclesOf(m.SGX(), m.Normal()) }

// Snapshot captures the current tallies. With concurrent chargers the
// result is a consistent point-in-time value per counter but the
// SGXU/Normal pair is not atomic as a whole: a charge that lands
// between the two loads appears in Normal but not SGXU (or vice versa). Callers that need an exact period — everything
// charged since the last boundary, each charge in exactly one period —
// must quiesce chargers first or use SnapshotAndReset.
func (m *Meter) Snapshot() Tally {
	if m == nil {
		return Tally{}
	}
	return Tally{SGXU: m.SGX(), Normal: m.Normal()}
}

// Enter marks enclave code running on the meter's behalf:
// Enclave.Call and Enclave.SwitchlessCall enter for the length of the
// call. Code that parks waiting for input, such as the I/O shim's
// receive, exits for the wait and enters again after it: it charges
// nothing until a peer acts, and Settle must never wait on a peer.
func (m *Meter) Enter() {
	if m != nil {
		m.running.Add(1)
	}
}

// Exit ends what Enter began.
func (m *Meter) Exit() {
	if m != nil {
		m.running.Add(-1)
	}
}

// Settle waits until no enclave code is charging the meter. An enclave
// that replies from inside a call still charges after its peer has the
// reply — the closing EEXIT, a protocol top-up — so a caller that has
// seen every reply it expects must settle before reading a phase
// boundary, or those charges land on either side of it by scheduling.
// Code running inside the meter's own enclave must not call it.
func (m *Meter) Settle() {
	if m == nil {
		return
	}
	for m.running.Load() > 0 {
		runtime.Gosched()
	}
}

// SnapshotAndReset settles the meter, then atomically drains it: it
// returns everything charged since the previous boundary and leaves the
// meter zeroed, using an atomic swap per counter so that every
// concurrent charge lands in exactly one period — either the returned
// tally or the next one, never both and never neither. This is the one
// primitive for phase accounting (the eval runner's steady-state
// boundary), where the per-phase tallies must sum to the run's total.
func (m *Meter) SnapshotAndReset() Tally {
	if m == nil {
		return Tally{}
	}
	m.Settle()
	return Tally{SGXU: m.sgxU.Swap(0), Normal: m.normal.Swap(0)}
}

// A Tally is an immutable snapshot of a Meter.
type Tally struct {
	SGXU   uint64 // SGX usermode instructions
	Normal uint64 // normal instructions
}

// Sub returns the element-wise difference t−o, saturating at zero.
func (t Tally) Sub(o Tally) Tally {
	d := Tally{}
	if t.SGXU > o.SGXU {
		d.SGXU = t.SGXU - o.SGXU
	}
	if t.Normal > o.Normal {
		d.Normal = t.Normal - o.Normal
	}
	return d
}

// Add returns the element-wise sum of t and o.
func (t Tally) Add(o Tally) Tally {
	return Tally{SGXU: t.SGXU + o.SGXU, Normal: t.Normal + o.Normal}
}

// Cycles converts the tally to estimated CPU cycles.
func (t Tally) Cycles() uint64 { return CyclesOf(t.SGXU, t.Normal) }

// String renders the tally in the style of the paper's tables.
func (t Tally) String() string {
	return fmt.Sprintf("SGX(U)=%d normal=%d (≈%d cycles)", t.SGXU, t.Normal, t.Cycles())
}
