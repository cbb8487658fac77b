package sdnctl

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/bgp"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/topo"
	"sgxnet/internal/wire"
)

// ControllerService is the netsim service the inter-domain controller
// listens on.
const ControllerService = "sdn.ctl"

// ControllerVersion participates in the controller enclave's measurement;
// ASes verify exactly this community-reviewed build (§3.1, §4).
const ControllerVersion = "1.0"

// ControllerState is the inter-domain controller's enclave-private state:
// every AS's policy, the computed routes, and the predicate registry.
// None of it ever leaves the enclave except through per-AS sealed
// responses.
type ControllerState struct {
	Attest *attest.TargetState

	mu         sync.Mutex
	n          int
	policies   map[int]*PolicyMsg
	connASN    map[uint32]int
	asnConn    map[int]uint32
	topology   *topo.Topology
	ribs       map[int]bgp.RIB
	stats      bgp.Stats
	computed   bool
	predicates map[string]map[int]Predicate // id → registering ASN → copy
}

// NewControllerState creates state expecting n ASes.
func NewControllerState(n int) *ControllerState {
	return &ControllerState{
		Attest:     attest.NewTargetState(),
		n:          n,
		policies:   make(map[int]*PolicyMsg),
		connASN:    make(map[uint32]int),
		asnConn:    make(map[int]uint32),
		predicates: make(map[string]map[int]Predicate),
	}
}

// BoundASes reports how many ASes currently hold a live attested channel
// binding — the controller's own view of deployment health, and what the
// Degraded response flag is computed from.
func (st *ControllerState) BoundASes() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.asnConn)
}

// Stats returns the last computation's work statistics.
func (st *ControllerState) Stats() bgp.Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// ControllerProgram builds the inter-domain controller enclave program:
// the attestation target role plus the command handlers. Its measurement
// is the identity every AS-local controller pins.
func ControllerProgram(st *ControllerState) *core.Program {
	prog := &core.Program{
		Name:    "interdomain-controller",
		Version: ControllerVersion,
		Handlers: map[string]core.Handler{
			"sdn.handle":  st.handle,
			"sdn.compute": st.compute,
		},
	}
	attest.AddTargetHandlers(prog, st.Attest)
	return prog
}

// ControllerMeasurement is the well-known measurement of the controller
// program — what AS-local controllers whitelist.
func ControllerMeasurement(n int) core.Measurement {
	return core.MeasureProgram(ControllerProgram(NewControllerState(n)))
}

// handle processes one sealed request. arg: connID(4) ‖ sealed request.
// The untrusted runtime sees only ciphertext; the response is sent back
// through the message shim, also sealed.
func (st *ControllerState) handle(env *core.Env, arg []byte) ([]byte, error) {
	if len(arg) < 4 {
		return nil, fmt.Errorf("sdnctl: short handle arg")
	}
	cid := binary.LittleEndian.Uint32(arg[:4])
	plain, err := st.Attest.Open(env.Meter(), cid, arg[4:])
	if err != nil {
		return nil, fmt.Errorf("sdnctl: opening request: %w", err)
	}
	var req Request
	if err := wire.Decode(plain, &req); err != nil {
		return nil, err
	}
	resp := st.dispatch(env.Meter(), cid, &req)
	out, err := wire.Encode(resp)
	if err != nil {
		return nil, err
	}
	sealed, err := st.Attest.Seal(env.Meter(), cid, out)
	if err != nil {
		return nil, err
	}
	if _, err := env.OCall("msg.send", netsim.EncodeSend(cid, sealed)); err != nil {
		return nil, err
	}
	return nil, nil
}

func (st *ControllerState) dispatch(m *core.Meter, cid uint32, req *Request) *Response {
	st.mu.Lock()
	defer st.mu.Unlock()

	// Bind the claimed ASN to this attested channel on first use.
	if bound, ok := st.connASN[cid]; ok {
		if bound != req.From {
			return &Response{Err: "ASN does not match channel binding"}
		}
	} else {
		if other, taken := st.asnConn[req.From]; taken && other != cid {
			return &Response{Err: "ASN already bound to another channel"}
		}
		st.connASN[cid] = req.From
		st.asnConn[req.From] = cid
	}

	switch {
	case req.Policy != nil:
		if req.Policy.ASN != req.From {
			return &Response{Err: "policy ASN mismatch"}
		}
		m.ChargeNormal(CostPolicyIngest)
		st.policies[req.Policy.ASN] = req.Policy
		st.computed = false
		return &Response{OK: true}

	case req.GetRoutes:
		if !st.computed {
			return &Response{Err: "routes not computed yet"}
		}
		rib := st.ribs[req.From]
		msg := &RoutesMsg{ASN: req.From}
		// Sorted destination order: map iteration would put the wire
		// bytes — and every AS's installed route order — at the mercy of
		// Go's map hashing. Same routes, same count, deterministic order.
		dests := make([]int, 0, len(rib))
		for d := range rib {
			dests = append(dests, d)
		}
		sort.Ints(dests)
		for _, d := range dests {
			msg.Routes = append(msg.Routes, rib[d])
		}
		// Degraded mode: the computation is still valid, but not every AS
		// holds a live attested channel right now (crash, partition). The
		// surviving ASes keep routing on the last good computation and are
		// told so, rather than being refused service by an outage they are
		// not part of.
		return &Response{OK: true, Routes: msg, Degraded: len(st.asnConn) < st.n}

	case req.Register != nil:
		p := *req.Register
		if req.From != p.ASa && req.From != p.ASb {
			return &Response{Err: "registrant is not a party to the predicate"}
		}
		if st.predicates[p.ID] == nil {
			st.predicates[p.ID] = make(map[int]Predicate)
		}
		if prev, dup := st.predicates[p.ID][req.From]; dup && !prev.Equal(p) {
			return &Response{Err: "conflicting re-registration"}
		}
		st.predicates[p.ID][req.From] = p
		return &Response{OK: true}

	case req.Verify != "":
		if !st.computed {
			return &Response{Err: "routes not computed yet"}
		}
		copies := st.predicates[req.Verify]
		if len(copies) == 0 {
			return &Response{Err: "unknown predicate"}
		}
		var ref Predicate
		first := true
		for _, c := range copies {
			if first {
				ref, first = c, false
			} else if !ref.Equal(c) {
				return &Response{Err: "parties registered different predicates"}
			}
		}
		if req.From != ref.ASa && req.From != ref.ASb {
			return &Response{Err: "requester is not a party"}
		}
		// Both parties must have agreed (registered) before anything is
		// evaluated — "the controller ensures that only the predicates
		// agreed upon by the two ASes are verified".
		if _, okA := copies[ref.ASa]; !okA {
			return &Response{Err: "promise-maker has not agreed to this predicate"}
		}
		if _, okB := copies[ref.ASb]; !okB {
			return &Response{Err: "beneficiary has not agreed to this predicate"}
		}
		holds, examined := EvaluatePredicate(ref, st.topology, st.ribs)
		m.ChargeNormal(uint64(examined) * CostPredicateEval)
		return &Response{OK: true, Verdict: &Verdict{PredicateID: ref.ID, Holds: holds}}

	default:
		return &Response{Err: "empty request"}
	}
}

// compute builds the global topology from the uploaded policies and runs
// the all-pairs path computation, charging the calibrated work and the
// in-enclave allocation surcharge.
func (st *ControllerState) compute(env *core.Env, _ []byte) ([]byte, error) {
	stats, err := st.computeRoutes(env.Meter())
	if err != nil {
		return nil, err
	}
	env.ChargeAllocs(uint64(stats.Evaluations / allocsPerEvals))
	return nil, nil
}

// computeRoutes is the engine shared by the enclave and native paths.
func (st *ControllerState) computeRoutes(m *core.Meter) (bgp.Stats, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t, err := BuildTopology(st.n, st.policies)
	if err != nil {
		return bgp.Stats{}, err
	}
	ribs, stats := bgp.ComputeAll(t)
	ChargeComputeWork(m, stats)
	st.topology, st.ribs, st.stats, st.computed = t, ribs, stats, true
	return stats, nil
}

// RIBs exposes the computed routes — an evaluation/testing hook standing
// in for the omniscient view a simulation has; a production controller
// never discloses another AS's routes.
func (st *ControllerState) RIBs() map[int]bgp.RIB {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[int]bgp.RIB, len(st.ribs))
	for a, r := range st.ribs {
		out[a] = r.Clone()
	}
	return out
}

// ChargeComputeWork charges the route-computation instruction model to a
// meter — shared by the enclave and native paths so the algorithmic work
// is identical and only the SGX surcharges differ.
func ChargeComputeWork(m *core.Meter, stats bgp.Stats) {
	m.ChargeNormal(uint64(stats.Updates)*CostRouteUpdate + uint64(stats.Evaluations)*CostRouteEval)
}

// Controller bundles the launched controller enclave with its untrusted
// runtime.
type Controller struct {
	Host    *netsim.SimHost
	Enclave *core.Enclave
	State   *ControllerState
	Shim    *netsim.IOShim

	listener *netsim.Listener
	wg       sync.WaitGroup
}

// LaunchController launches the controller enclave on the host and starts
// accepting AS-local connections: each is served by one remote
// attestation (the target role) followed by the sealed command loop.
func LaunchController(host *netsim.SimHost, signer *core.Signer, n int) (*Controller, error) {
	st := NewControllerState(n)
	enc, err := host.Platform().Launch(ControllerProgram(st), signer)
	if err != nil {
		return nil, err
	}
	shim := netsim.NewMsgShim(host, enc.Meter())
	enc.BindHost(shim)
	l, err := host.Listen(ControllerService)
	if err != nil {
		enc.Destroy()
		return nil, err
	}
	c := &Controller{Host: host, Enclave: enc, State: st, Shim: shim, listener: l}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		l.Serve(c.serveConn)
	}()
	return c, nil
}

// Release unbinds a dead connection's ASN and forgets its session and
// any pending attestation, so the AS can reconnect and re-attest on a
// fresh channel. The computed routes stay valid — losing a channel is an
// outage, not a policy change.
func (st *ControllerState) Release(cid uint32) {
	st.Attest.Abort(cid)
	st.Attest.Drop(cid)
	st.mu.Lock()
	if asn, ok := st.connASN[cid]; ok {
		delete(st.connASN, cid)
		if st.asnConn[asn] == cid {
			delete(st.asnConn, asn)
		}
	}
	st.mu.Unlock()
}

// SetRecvTimeout bounds the controller enclave's receives — required when
// a fault schedule can kill an AS mid-attestation, or the responder would
// block forever inside a half-finished protocol run.
func (c *Controller) SetRecvTimeout(d time.Duration) { c.Shim.SetRecvTimeout(d) }

func (c *Controller) serveConn(conn *netsim.Conn) {
	cid, err := attest.Respond(nil, "", c.Enclave, c.Shim, c.Host, conn)
	if err != nil {
		conn.Close()
		return
	}
	defer c.State.Release(cid)
	for {
		sealed, err := conn.Recv()
		if err != nil {
			return
		}
		arg := make([]byte, 4+len(sealed))
		binary.LittleEndian.PutUint32(arg[:4], cid)
		copy(arg[4:], sealed)
		if _, err := c.Enclave.Call("sdn.handle", arg); err != nil {
			conn.Close()
			return
		}
	}
}

// Compute triggers the in-enclave route computation (the untrusted
// runtime schedules it once all policies are in; the enclave re-checks).
func (c *Controller) Compute() error {
	_, err := c.Enclave.Call("sdn.compute", nil)
	return err
}

// Close stops the controller.
func (c *Controller) Close() {
	c.listener.Close()
	c.Enclave.Destroy()
}
