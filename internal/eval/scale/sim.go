package scale

import (
	"fmt"

	"sgxnet/internal/core"
	"sgxnet/internal/eval/load"
	"sgxnet/internal/netsim/des"
	"sgxnet/internal/sdnctl"
)

// The state machines. One Run drives every operation of a cell through
// a single-threaded des.Kernel: hosts are array slots (a busy-until
// clock each), flows are packed uint64 event arguments, and the only
// allocations on the hot path are the kernel's heap slots — no
// goroutines, no channels, no per-flow structs. Service times come
// from the same instruction-cost model the rig-based tables use
// (core.CyclesOf over Table 1/2/4 constants), so a scale cell's
// per-op numbers are directly comparable to the small-topology rigs'.
//
// Virtual timing follows the SGX deployment — that is the system the
// paper proposes to run — while a native tally rides along on every
// charge so the rendered table can report the per-op overhead factor.

// Event argument packing: | stage:8 | aux:24 | idx:32 |. idx is the
// operation (update or flow) index; aux carries the hop number or the
// peer-edge cursor.
const (
	argIdxBits = 32
	argAuxBits = 24
	argIdxMask = 1<<argIdxBits - 1
	argAuxMask = 1<<argAuxBits - 1
)

func pack(stage uint8, aux int, idx int) uint64 {
	return uint64(stage)<<(argIdxBits+argAuxBits) | uint64(aux&argAuxMask)<<argIdxBits | uint64(idx&argIdxMask)
}

func unpack(arg uint64) (stage uint8, aux int, idx int) {
	return uint8(arg >> (argIdxBits + argAuxBits)), int(arg >> argIdxBits & argAuxMask), int(arg & argIdxMask)
}

// Modeled per-stage instruction costs. SDN anchors to the sdnctl/Table
// 4 constants: one update adopts a route and weighs a dozen candidates;
// the enclave build adds per-packet I/O (Table 2) and, on every other
// update, a dynamic-allocation enclave exit (the paper's named Table 4
// overhead source). Tor anchors to Table 2: one 512-byte onion cell
// AES pass plus routing per hop, with the in-enclave build paying the
// per-packet copy cost and a 1/16-amortized I/O-call fixed cost
// (cells batch onto the wire, DESIGN.md §6).
const (
	sdnEvalsPerUpdate = 12
	sdnCtrlNormal     = sdnctl.CostRouteUpdate + sdnEvalsPerUpdate*sdnctl.CostRouteEval + sdnctl.CostPredicateEval
	sdnPeerNormal     = 50_000 // peer gossip ingest: parse + RIB touch

	torCellBytes  = 512
	torHopNormal  = torCellBytes*core.CostAESBlockPerByte + 1_200 // AES pass + circuit-table routing
	torIOBatch    = 16
	torHopSGXNorm = core.CostIOPerPacket + core.CostIOCallFixed/torIOBatch

	// enclavePacketNormal / enclavePacketSGXU is the Table 2 price of
	// one unbatched in-enclave packet I/O call, charged by the SDN
	// build on every controller ingress/egress.
	enclavePacketNormal = core.CostIOCallFixed + core.CostIOPerPacket
	enclavePacketSGXU   = core.SGXInstIOCallFixed + core.SGXInstIOPerPacket

	// Link latency: 50µs base plus up to 200µs of seeded per-link
	// spread, in virtual cycles (1 cycle = 1ns at the modeled clock).
	linkLatBase   = 50_000
	linkLatSpread = 200_000
)

// Result is one completed cell.
type Result struct {
	Spec     Spec
	Ops      int    // operations completed (SDN updates / Tor flows)
	Events   uint64 // kernel events processed
	PeakLive int    // peak simultaneously-scheduled events (backlog)
	Makespan uint64 // virtual cycles from first arrival to last event

	// Instruction tallies for the whole cell, both builds, charged
	// identically except for the enclave surcharges.
	Native core.Tally
	SGX    core.Tally

	// LatencySum accumulates per-op completion latency (completion
	// minus arrival, virtual cycles) for MeanLatency.
	LatencySum uint64
}

// PerOpNativeCycles is the native build's mean modeled cycles per op.
func (r Result) PerOpNativeCycles() uint64 {
	if r.Ops == 0 {
		return 0
	}
	return r.Native.Cycles() / uint64(r.Ops)
}

// PerOpSGXCycles is the SGX build's mean modeled cycles per op.
func (r Result) PerOpSGXCycles() uint64 {
	if r.Ops == 0 {
		return 0
	}
	return r.SGX.Cycles() / uint64(r.Ops)
}

// Overhead is the SGX/native modeled-cycle ratio — the scale sweep's
// Figure 3 quantity.
func (r Result) Overhead() float64 {
	if n := r.Native.Cycles(); n > 0 {
		return float64(r.SGX.Cycles()) / float64(n)
	}
	return 0
}

// MeanLatency is the mean op completion latency in virtual cycles.
func (r Result) MeanLatency() uint64 {
	if r.Ops == 0 {
		return 0
	}
	return r.LatencySum / uint64(r.Ops)
}

// Run simulates one cell to completion. Deterministic: the same spec
// produces a byte-identical Result on every run, at any worker count —
// the kernel is private to the call and single-threaded.
func Run(sp Spec) (Result, error) {
	return RunSampled(sp, nil)
}

// RunSampled is Run with the windowed-metrics layer attached: the
// kernel samples events-per-window and heap backlog at every pop, and
// the SDN machine additionally samples the serialized inter-domain
// controller's queueing delay (busy-until minus now — the signal that
// grows without bound when the controller saturates). Timestamps are
// the kernel's own virtual clock, so the series are as deterministic as
// the Result. sm may be nil (identical to Run).
func RunSampled(sp Spec, sm des.Sampler) (Result, error) {
	if err := sp.Validate(); err != nil {
		return Result{}, err
	}
	gen, err := sp.arrivalSpec().Arrivals()
	if err != nil {
		return Result{}, err
	}
	arr := &arrivals{gen: gen}
	k := des.New()
	k.SetSeries(sm)
	var m machine
	switch sp.Kind {
	case SDN:
		m = newSDNSim(sp, arr, k, sm)
	case Tor:
		m = newTorSim(sp, arr, k)
	}
	// Lazy arrival injection: each arrival event schedules the next, so
	// the heap holds only the genuine in-flight backlog — PeakLive
	// measures queueing, not the length of the input schedule.
	arr.next(k, m, 0)
	st := k.Run()
	if arr.err != nil {
		return Result{}, arr.err
	}
	res := m.result()
	res.Spec = sp
	res.Events = st.Processed
	res.PeakLive = st.PeakLive
	res.Makespan = st.Now
	if res.Ops != sp.Ops() {
		return res, fmt.Errorf("scale: %s: completed %d of %d ops", sp, res.Ops, sp.Ops())
	}
	return res, nil
}

type machine interface {
	des.Handler
	result() Result
}

// arrivals feeds a machine its schedule one timestamp at a time, so a
// cell holds its in-flight backlog and never the whole schedule. Mean
// latency needs only the arrivals' sum, kept here: in uint64 arithmetic
// Σ completion − Σ arrival equals Σ (completion − arrival).
type arrivals struct {
	gen *load.Arrivals
	sum uint64 // Σ arrival over the ops scheduled so far
	err error  // why the schedule stopped early, if it did
}

// next schedules op idx's arrival on k, if the schedule has one more.
func (a *arrivals) next(k *des.Kernel, h des.Handler, idx int) {
	t, ok, err := a.gen.Next()
	if !ok {
		a.err = err
		return
	}
	a.sum += t
	k.At(t, h, pack(stageArrive, 0, idx))
}

// Event stages, shared by both machines (aux disambiguates).
const (
	stageArrive = iota // op enters the network (client/AS send)
	stageServe         // SDN: inter-domain controller; Tor: relay hop
	stageLocal         // SDN: AS-local install
	stagePeer          // SDN: peer gossip ingest
	stageDone          // Tor: flow completion at the client
)

// tally accumulates both builds without Meter's striping — the
// machines are single-threaded by construction.
type tally struct {
	nativeSGXU, nativeNorm uint64
	sgxSGXU, sgxNorm       uint64
}

// charge records a stage on both builds and returns the SGX build's
// cycle cost, which is what advances the virtual clock.
func (t *tally) charge(bothNorm, sgxExtraNorm, sgxExtraU uint64) uint64 {
	t.nativeNorm += bothNorm
	t.sgxNorm += bothNorm + sgxExtraNorm
	t.sgxSGXU += sgxExtraU
	return core.CyclesOf(sgxExtraU, bothNorm+sgxExtraNorm)
}

// mix is a splitmix64-style hash for seeded per-link parameters —
// stable across Go releases, unlike math/rand.
func mix(seed, x uint64) uint64 {
	z := seed + x*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// linkLat is the seeded propagation delay of link key.
func linkLat(seed, key uint64) uint64 {
	return linkLatBase + mix(seed, key)%linkLatSpread
}

// --- SDN machine ---

// sdnSim drives Hosts*Updates route updates: AS (idx mod Hosts) sends
// update idx to the single inter-domain controller (a serialized
// resource — requests queue on its busy-until clock), the decision
// returns to the AS-local controller for validated install, and each
// peering edge incident to the AS ingests a gossip notification.
type sdnSim struct {
	spec Spec
	arr  *arrivals
	k    *des.Kernel

	ctrlFree uint64   // inter-domain controller busy-until
	asFree   []uint64 // per-AS-local-controller busy-until
	adj      [][]int  // peer list per AS
	sm       des.Sampler

	t       tally
	ops     int
	doneSum uint64 // Σ completion
}

func newSDNSim(sp Spec, arr *arrivals, k *des.Kernel, sm des.Sampler) *sdnSim {
	s := &sdnSim{spec: sp, arr: arr, k: k, sm: sm, asFree: make([]uint64, sp.Hosts)}
	s.adj = make([][]int, sp.Hosts)
	for _, e := range sp.Edges {
		s.adj[e.A] = append(s.adj[e.A], e.B)
		s.adj[e.B] = append(s.adj[e.B], e.A)
	}
	return s
}

func (s *sdnSim) OnEvent(now uint64, arg uint64) {
	stage, aux, idx := unpack(arg)
	as := idx % s.spec.Hosts
	switch stage {
	case stageArrive:
		s.arr.next(s.k, s, idx+1)
		// The AS ships the update: one packet up to the controller.
		s.k.At(now+linkLat(s.spec.Seed, uint64(as)), s, pack(stageServe, 0, idx))
	case stageServe:
		// Decision work at the serialized inter-domain controller, with
		// the enclave paying packet ingress I/O and — every other
		// update — a dynamic-allocation enclave exit (Table 4's named
		// overhead source; the allocator pools two updates per refill,
		// mirroring sdnctl's allocation-rate calibration).
		extraNorm, extraU := uint64(enclavePacketNormal), uint64(enclavePacketSGXU)
		if idx%2 == 1 {
			extraNorm += core.CostEnclaveAllocFixed
			extraU += core.SGXInstEnclaveAlloc
		}
		svc := s.t.charge(sdnCtrlNormal, extraNorm, extraU)
		start := max(now, s.ctrlFree)
		s.ctrlFree = start + svc
		if s.sm != nil {
			// Controller backlog = how far busy-until runs ahead of the
			// arriving update; the series that diverges when the serialized
			// inter-domain controller saturates.
			s.sm.CountAt("ctrl.updates", now, 1)
			s.sm.GaugeAt("ctrl.backlog_cycles", now, s.ctrlFree-now)
		}
		s.k.At(s.ctrlFree+linkLat(s.spec.Seed, uint64(as)), s, pack(stageLocal, 0, idx))
	case stageLocal:
		// Validated install at the AS-local controller (§6: in-enclave
		// code must not trust data crossing the boundary, so the SGX
		// build validates every route before install).
		extraNorm := uint64(sdnctl.CostRouteValidate + enclavePacketNormal)
		extraU := uint64(enclavePacketSGXU)
		if idx%2 == 1 { // route entries allocate two per chunk
			extraNorm += core.CostEnclaveAllocFixed
			extraU += core.SGXInstEnclaveAlloc
		}
		svc := s.t.charge(sdnctl.CostRouteInstall, extraNorm, extraU)
		start := max(now, s.asFree[as])
		s.asFree[as] = start + svc
		s.ops++
		s.doneSum += start + svc
		if len(s.adj[as]) > 0 {
			s.k.At(start+svc+linkLat(s.spec.Seed, uint64(as)<<20), s, pack(stagePeer, 0, idx))
		}
	case stagePeer:
		peer := s.adj[as][aux]
		svc := s.t.charge(sdnPeerNormal, enclavePacketNormal, enclavePacketSGXU)
		start := max(now, s.asFree[peer])
		s.asFree[peer] = start + svc
		if aux+1 < len(s.adj[as]) {
			s.k.At(now+linkLat(s.spec.Seed, uint64(as)<<20+uint64(aux+1)), s, pack(stagePeer, aux+1, idx))
		}
	}
}

func (s *sdnSim) result() Result {
	return Result{
		Ops:        s.ops,
		Native:     core.Tally{SGXU: s.t.nativeSGXU, Normal: s.t.nativeNorm},
		SGX:        core.Tally{SGXU: s.t.sgxSGXU, Normal: s.t.sgxNorm},
		LatencySum: s.doneSum - s.arr.sum,
	}
}

// --- Tor machine ---

// torSim drives Flows circuits: each flow's path is Hops distinct
// relays drawn from a seeded stream, each hop decrypts one onion layer
// (AES over the cell) and routes it onward, relays serialize on their
// busy-until clocks, and the completion event returns to the client.
type torSim struct {
	spec Spec
	arr  *arrivals
	k    *des.Kernel

	relayFree []uint64
	path      []int // scratch, refilled per event from the seed

	t       tally
	ops     int
	doneSum uint64 // Σ completion
}

func newTorSim(sp Spec, arr *arrivals, k *des.Kernel) *torSim {
	return &torSim{spec: sp, arr: arr, k: k,
		relayFree: make([]uint64, sp.Hosts), path: make([]int, sp.Hops)}
}

// fillPath regenerates flow idx's circuit into t.path: Hops distinct
// relays by seeded rejection sampling (bounded: after 64 collisions it
// scans forward from the candidate, still deterministic).
func (t *torSim) fillPath(idx int) {
	h := t.spec.Hosts
	for i := 0; i < t.spec.Hops; i++ {
		r := int(mix(t.spec.Seed^0x746f72, uint64(idx)<<8|uint64(i)) % uint64(h))
		for try := 0; contains(t.path[:i], r); try++ {
			if try < 64 {
				r = int(mix(t.spec.Seed^0x746f72, uint64(idx)<<8|uint64(i)|uint64(try+1)<<40) % uint64(h))
			} else {
				r = (r + 1) % h
			}
		}
		t.path[i] = r
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (t *torSim) OnEvent(now uint64, arg uint64) {
	stage, aux, idx := unpack(arg)
	switch stage {
	case stageArrive:
		t.arr.next(t.k, t, idx+1)
		t.fillPath(idx)
		// Client onion-wraps and ships the cell to the guard.
		t.k.At(now+linkLat(t.spec.Seed, uint64(t.path[0])), t, pack(stageServe, 0, idx))
	case stageServe:
		t.fillPath(idx)
		r := t.path[aux]
		// One onion layer at relay r: AES over the cell plus routing;
		// the enclave adds the per-packet copy and the batch-amortized
		// I/O call (Table 2, cells batch torIOBatch per crossing).
		svc := t.t.charge(torHopNormal, torHopSGXNorm, core.SGXInstIOPerPacket)
		start := max(now, t.relayFree[r])
		t.relayFree[r] = start + svc
		if aux+1 < t.spec.Hops {
			next := t.path[aux+1]
			t.k.At(start+svc+linkLat(t.spec.Seed, uint64(r)<<20|uint64(next)), t,
				pack(stageServe, aux+1, idx))
		} else {
			// Exit leg: the reply rides the symmetric return path, which
			// adds latency but no additional modeled relay work here.
			t.k.At(start+svc+linkLat(t.spec.Seed, uint64(r)), t, pack(stageDone, 0, idx))
		}
	case stageDone:
		t.ops++
		t.doneSum += now
	}
}

func (t *torSim) result() Result {
	return Result{
		Ops:        t.ops,
		Native:     core.Tally{SGXU: t.t.nativeSGXU, Normal: t.t.nativeNorm},
		SGX:        core.Tally{SGXU: t.t.sgxSGXU, Normal: t.t.sgxNorm},
		LatencySum: t.doneSum - t.arr.sum,
	}
}
