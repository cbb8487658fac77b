package sdnctl

import (
	"sync"
	"sync/atomic"

	"sgxnet/internal/bgp"
	"sgxnet/internal/netsim"
	"sgxnet/internal/wire"
)

// Native (non-SGX) deployment: the same controller protocol over plain
// connections, with no enclaves, no attestation, and no channel crypto.
// This is the "w/o SGX" baseline of Table 4 and Figure 3. All work is
// charged to the hosts' meters.

// NativeController is the baseline inter-domain controller.
type NativeController struct {
	Host     *netsim.SimHost
	State    *ControllerState
	listener *netsim.Listener
	wg       sync.WaitGroup

	// connIDs allocates per-connection session IDs. Per-controller (not
	// package-level) so concurrent independent deployments share no
	// state whatsoever — the ID sequence a run observes depends only on
	// that run.
	connIDs atomic.Uint32
}

// LaunchNativeController starts the plain controller service.
func LaunchNativeController(host *netsim.SimHost, n int) (*NativeController, error) {
	l, err := host.Listen(ControllerService)
	if err != nil {
		return nil, err
	}
	c := &NativeController{Host: host, State: NewControllerState(n), listener: l}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		l.Serve(c.serveConn)
	}()
	return c, nil
}

func (c *NativeController) serveConn(conn *netsim.Conn) {
	cid := c.connIDs.Add(1)
	m := c.Host.Platform().HostMeter
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		var req Request
		if err := wire.Decode(raw, &req); err != nil {
			conn.Close()
			return
		}
		resp := c.State.dispatch(m, cid, &req)
		out, err := wire.Encode(resp)
		if err != nil {
			conn.Close()
			return
		}
		if err := conn.Send(out); err != nil {
			return
		}
	}
}

// Compute runs the centralized computation on the untrusted host.
func (c *NativeController) Compute() error {
	_, err := c.State.computeRoutes(c.Host.Platform().HostMeter)
	return err
}

// Close stops the controller.
func (c *NativeController) Close() { c.listener.Close() }

// NativeASLocal is the baseline AS-local controller: plain process on its
// host.
type NativeASLocal struct {
	ASN    int
	Host   *netsim.SimHost
	policy *PolicyMsg
	conn   *netsim.Conn

	mu        sync.Mutex
	installed []bgp.Route
}

// NewNativeASLocal creates the baseline AS-local controller.
func NewNativeASLocal(host *netsim.SimHost, policy *PolicyMsg) *NativeASLocal {
	return &NativeASLocal{ASN: policy.ASN, Host: host, policy: policy}
}

// Connect dials the controller (no attestation in the baseline).
func (a *NativeASLocal) Connect(controllerHost string) error {
	conn, err := a.Host.Dial(controllerHost, ControllerService)
	if err != nil {
		return err
	}
	a.conn = conn
	return nil
}

func (a *NativeASLocal) roundTrip(req *Request) (*Response, error) {
	raw, err := wire.Encode(req)
	if err != nil {
		return nil, err
	}
	out, err := a.conn.Request(raw)
	if err != nil {
		return nil, err
	}
	var resp Response
	if err := wire.Decode(out, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Upload sends the policy, charging the assembly work.
func (a *NativeASLocal) Upload() error {
	m := a.Host.Platform().HostMeter
	m.ChargeNormal(uint64(len(a.policy.Neighbors)) * CostPolicyBuild)
	resp, err := a.roundTrip(&Request{From: a.ASN, Policy: a.policy})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errResponse(resp.Err)
	}
	return nil
}

// Fetch retrieves and installs routes. The native controller is trusted
// by assumption, so no Iago validation pass runs here — one of the two
// places the enclave deployment pays extra.
func (a *NativeASLocal) Fetch() error {
	m := a.Host.Platform().HostMeter
	resp, err := a.roundTrip(&Request{From: a.ASN, GetRoutes: true})
	if err != nil {
		return err
	}
	if resp.Err != "" || resp.Routes == nil {
		return errResponse(resp.Err)
	}
	m.ChargeNormal(uint64(len(resp.Routes.Routes)) * CostRouteInstall)
	a.mu.Lock()
	a.installed = resp.Routes.Routes
	a.mu.Unlock()
	return nil
}

// Installed returns the installed routes.
func (a *NativeASLocal) Installed() []bgp.Route {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]bgp.Route(nil), a.installed...)
}

// Close tears down the connection.
func (a *NativeASLocal) Close() {
	if a.conn != nil {
		a.conn.Close()
	}
}

type errResponse string

func (e errResponse) Error() string { return "sdnctl: controller error: " + string(e) }
