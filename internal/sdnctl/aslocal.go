package sdnctl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"sgxnet/internal/attest"
	"sgxnet/internal/bgp"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/wire"
)

// ASLocalState is an AS-local controller's enclave-private state: its own
// policy (the secret it refuses to disclose outside enclaves) and the
// routes installed after computation.
type ASLocalState struct {
	Attest *attest.ChallengerState

	mu        sync.Mutex
	policy    *PolicyMsg
	installed []bgp.Route
	ctlConn   uint32
}

// NewASLocalState creates state around the AS's private policy. The
// acceptance policy pins the community-verified controller measurement.
func NewASLocalState(policy *PolicyMsg, controllerMR core.Measurement) *ASLocalState {
	return &ASLocalState{
		Attest: attest.NewChallengerState(attest.Policy{
			AllowedEnclaves: []core.Measurement{controllerMR},
			RejectDebug:     true,
		}),
		policy: policy,
	}
}

// Installed returns the routes installed so far.
func (st *ASLocalState) Installed() []bgp.Route {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]bgp.Route(nil), st.installed...)
}

// ASLocalProgram builds the AS-local controller enclave program. Note the
// program identity is independent of the private policy: the policy is
// runtime data (uploaded into the enclave), not code, so every AS runs
// the same measured build without revealing anything through MRENCLAVE.
func ASLocalProgram(st *ASLocalState) *core.Program {
	prog := &core.Program{
		Name:    "aslocal-controller",
		Version: ControllerVersion,
		Handlers: map[string]core.Handler{
			"aslocal.upload":   st.upload,
			"aslocal.fetch":    st.fetch,
			"aslocal.reconfig": st.reconfig,
		},
	}
	attest.AddChallengerHandlers(prog, st.Attest)
	return prog
}

// reconfig replaces the enclave's local policy (the operator updated a
// peering agreement or a link failed). arg: gob(PolicyMsg).
func (st *ASLocalState) reconfig(env *core.Env, arg []byte) ([]byte, error) {
	var p PolicyMsg
	if err := wire.Decode(arg, &p); err != nil {
		return nil, err
	}
	st.mu.Lock()
	if st.policy != nil && p.ASN != st.policy.ASN {
		st.mu.Unlock()
		return nil, fmt.Errorf("sdnctl: reconfig may not change the ASN")
	}
	st.policy = &p
	st.mu.Unlock()
	return nil, nil
}

// upload assembles and uploads this AS's policy over the attested
// channel, then waits for the controller's sealed acknowledgement.
// arg: connID(4).
func (st *ASLocalState) upload(env *core.Env, arg []byte) ([]byte, error) {
	if len(arg) < 4 {
		return nil, fmt.Errorf("sdnctl: short upload arg")
	}
	cid := binary.LittleEndian.Uint32(arg[:4])
	st.mu.Lock()
	st.ctlConn = cid
	pol := st.policy
	st.mu.Unlock()

	env.ChargeNormal(uint64(len(pol.Neighbors)) * CostPolicyBuild)
	resp, err := st.roundTrip(env, cid, &Request{From: pol.ASN, Policy: pol})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("sdnctl: controller rejected policy: %s", resp.Err)
	}
	return nil, nil
}

// fetch retrieves, validates, and installs this AS's routes. arg:
// connID(4).
func (st *ASLocalState) fetch(env *core.Env, arg []byte) ([]byte, error) {
	if len(arg) < 4 {
		return nil, fmt.Errorf("sdnctl: short fetch arg")
	}
	cid := binary.LittleEndian.Uint32(arg[:4])
	st.mu.Lock()
	asn := st.policy.ASN
	nbrs := st.policy.Neighbors
	st.mu.Unlock()

	resp, err := st.roundTrip(env, cid, &Request{From: asn, GetRoutes: true})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" || resp.Routes == nil {
		return nil, fmt.Errorf("sdnctl: fetch failed: %s", resp.Err)
	}
	// Iago discipline: everything that crossed the boundary is validated
	// before installation — the next hop must be a real neighbor (or the
	// route self-originated), and the path must not loop through us.
	valid := resp.Routes.Routes[:0]
	for _, r := range resp.Routes.Routes {
		env.ChargeNormal(CostRouteValidate)
		if r.Contains(asn) {
			return nil, fmt.Errorf("sdnctl: controller handed AS%d a looping route %v", asn, r)
		}
		if !r.IsSelf() && len(r.Path) > 0 {
			known := false
			for _, nb := range nbrs {
				if nb.Neighbor == r.NextHop() {
					known = true
					break
				}
			}
			if !known {
				return nil, fmt.Errorf("sdnctl: route via unknown next hop AS%d", r.NextHop())
			}
		}
		env.ChargeNormal(CostRouteInstall)
		valid = append(valid, r)
	}
	env.ChargeAllocs(uint64(len(valid) / allocsPerRoutes))
	st.mu.Lock()
	st.installed = valid
	st.mu.Unlock()
	return nil, nil
}

// roundTrip seals a request, sends it, and opens the sealed response —
// all inside the enclave (one msg.send and one msg.recv OCALL).
func (st *ASLocalState) roundTrip(env *core.Env, cid uint32, req *Request) (*Response, error) {
	raw, err := wire.Encode(req)
	if err != nil {
		return nil, err
	}
	sealed, err := st.Attest.Seal(env.Meter(), cid, raw)
	if err != nil {
		return nil, err
	}
	if _, err := env.OCall("msg.send", netsim.EncodeSend(cid, sealed)); err != nil {
		return nil, err
	}
	respSealed, err := env.OCall("msg.recv", netsim.EncodeSend(cid, nil))
	if err != nil {
		return nil, err
	}
	plain, err := st.Attest.Open(env.Meter(), cid, respSealed)
	if err != nil {
		return nil, err
	}
	var resp Response
	if err := wire.Decode(plain, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// request is the generic command path used for predicates (outside the
// Table 4 measurement window). arg: connID(4) ‖ gob(Request).
func (st *ASLocalState) request(env *core.Env, arg []byte) ([]byte, error) {
	if len(arg) < 4 {
		return nil, fmt.Errorf("sdnctl: short request arg")
	}
	cid := binary.LittleEndian.Uint32(arg[:4])
	var req Request
	if err := wire.Decode(arg[4:], &req); err != nil {
		return nil, err
	}
	st.mu.Lock()
	req.From = st.policy.ASN
	st.mu.Unlock()
	resp, err := st.roundTrip(env, cid, &req)
	if err != nil {
		return nil, err
	}
	return wire.Encode(resp)
}

// ASLocal bundles a launched AS-local controller with its runtime.
type ASLocal struct {
	ASN     int
	Host    *netsim.SimHost
	Enclave *core.Enclave
	State   *ASLocalState
	Shim    *netsim.IOShim

	conn    *netsim.Conn
	connID  uint32
	ctlHost string

	// retry, when set, arms every operation with deadlines and automatic
	// re-attestation (see SetRetryPolicy); nil is one blocking attempt.
	retry *attest.RetryPolicy

	// Retries counts attestation retries; Reattests counts full channel
	// re-establishments after a loss. Driver-side bookkeeping — read them
	// between operations, not concurrently with one.
	Retries   int
	Reattests int
}

// SetRetryPolicy makes the AS-local controller fault-tolerant: dials and
// attestations retry with backoff, enclave receives time out instead of
// blocking forever, and operations that die with the channel re-attest
// the controller and run again. Zero fields take DefaultRetryPolicy's
// values, resolved here once. Without it, behavior is the seed's: block,
// and fail permanently on the first lost message.
func (a *ASLocal) SetRetryPolicy(pol attest.RetryPolicy) {
	pol = pol.WithDefaults()
	a.retry = &pol
	a.Shim.SetRecvTimeout(pol.RecvTimeout)
}

// LaunchASLocal launches the AS-local controller enclave.
func LaunchASLocal(host *netsim.SimHost, signer *core.Signer, policy *PolicyMsg, controllerMR core.Measurement) (*ASLocal, error) {
	st := NewASLocalState(policy, controllerMR)
	prog := ASLocalProgram(st)
	prog.Handlers["aslocal.request"] = st.request
	enc, err := host.Platform().Launch(prog, signer)
	if err != nil {
		return nil, err
	}
	shim := netsim.NewMsgShim(host, enc.Meter())
	enc.BindHost(shim)
	return &ASLocal{ASN: policy.ASN, Host: host, Enclave: enc, State: st, Shim: shim}, nil
}

// Connect dials the controller and remote-attests it (with DH: the
// secure channel carries everything that follows), under the retry
// policy: with one set, the dial and the 9-message protocol retry under
// faults.
func (a *ASLocal) Connect(controllerHost string) error {
	a.ctlHost = controllerHost
	conn, cid, _, retries, err := attest.ChallengeRetry(nil, "", a.Enclave, a.Shim, a.State.Attest,
		func() (*netsim.Conn, error) { return a.Host.Dial(controllerHost, ControllerService) },
		true, a.retry)
	a.Retries += retries
	if err != nil {
		return fmt.Errorf("sdnctl: AS%d attestation of controller failed: %w", a.ASN, err)
	}
	a.conn, a.connID = conn, cid
	return nil
}

// reconnectable classifies operation failures that a fresh attested
// channel can cure: the transport died, a receive timed out, or the
// session aged out. Controller-side refusals (policy mismatch, stale
// routes) pass through untouched.
func reconnectable(err error) bool {
	return errors.Is(err, netsim.ErrClosed) || errors.Is(err, netsim.ErrTimeout) ||
		errors.Is(err, netsim.ErrHostDown) || errors.Is(err, netsim.ErrNoRoute) ||
		errors.Is(err, attest.ErrNoSession) || errors.Is(err, attest.ErrSessionExpired)
}

// withReconnect runs op; if it dies with the channel and a retry policy
// is set, the channel is torn down through attest.Reestablish — pending
// protocol state and the stored session are destroyed before the fresh
// challenge runs — and op is retried: the session-expiry/crash recovery
// loop. Each cycle charges
// core.CostRetryAttempt plus the re-establishment's own cost (the op's
// instructions are charged by the op).
func (a *ASLocal) withReconnect(op func() error) error {
	err := op()
	if a.retry == nil || err == nil || !reconnectable(err) {
		return err
	}
	for attempt := 1; attempt < a.retry.Attempts; attempt++ {
		a.Enclave.Meter().ChargeNormal(core.CostRetryAttempt)
		if a.conn != nil {
			a.conn.Close()
		}
		conn, cid, _, retries, cerr := attest.Reestablish(nil, "", a.Enclave, a.Shim, a.State.Attest, a.connID,
			func() (*netsim.Conn, error) { return a.Host.Dial(a.ctlHost, ControllerService) },
			true, a.retry)
		a.Retries += retries
		if cerr != nil {
			return fmt.Errorf("sdnctl: AS%d re-attestation of controller failed: %w", a.ASN, cerr)
		}
		a.conn, a.connID = conn, cid
		a.Reattests++
		if err = op(); err == nil || !reconnectable(err) {
			return err
		}
	}
	return err
}

// Upload sends the AS policy.
func (a *ASLocal) Upload() error {
	return a.withReconnect(func() error {
		arg := make([]byte, 4)
		binary.LittleEndian.PutUint32(arg, a.connID)
		_, err := a.Enclave.Call("aslocal.upload", arg)
		return err
	})
}

// Fetch retrieves and installs this AS's routes.
func (a *ASLocal) Fetch() error {
	return a.withReconnect(func() error {
		arg := make([]byte, 4)
		binary.LittleEndian.PutUint32(arg, a.connID)
		_, err := a.Enclave.Call("aslocal.fetch", arg)
		return err
	})
}

// Reconfigure installs a new local policy into the enclave and uploads
// it — the dynamic-topology path (link failures, changed agreements).
// The controller invalidates its computed routes until the next Compute.
func (a *ASLocal) Reconfigure(p *PolicyMsg) error {
	raw, err := wire.Encode(p)
	if err != nil {
		return err
	}
	if _, err := a.Enclave.Call("aslocal.reconfig", raw); err != nil {
		return err
	}
	return a.Upload()
}

// Do issues an arbitrary request (predicate registration/verification).
func (a *ASLocal) Do(req *Request) (*Response, error) {
	raw, err := wire.Encode(req)
	if err != nil {
		return nil, err
	}
	var resp *Response
	err = a.withReconnect(func() error {
		arg := make([]byte, 4+len(raw))
		binary.LittleEndian.PutUint32(arg[:4], a.connID)
		copy(arg[4:], raw)
		out, err := a.Enclave.Call("aslocal.request", arg)
		if err != nil {
			return err
		}
		var r Response
		if err := wire.Decode(out, &r); err != nil {
			return err
		}
		resp = &r
		return nil
	})
	return resp, err
}

// Close tears down the controller connection and the enclave.
func (a *ASLocal) Close() {
	if a.conn != nil {
		a.conn.Close()
	}
	a.Enclave.Destroy()
}
