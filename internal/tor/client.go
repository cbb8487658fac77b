package tor

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/sgxcrypto"
)

// Client is a Tor client: it learns the OR membership (from directory
// authorities, or from the DHT in the fully SGX-enabled setting), builds
// telescoped circuits, and carries streams over them.
type Client struct {
	Name string
	Host *netsim.SimHost
	// SGX clients hold a challenger enclave used to attest authorities
	// (and ORs in the fully SGX-enabled setting).
	SGX bool
	// PreferSGX makes path selection favor hardware-verified relays
	// during the incremental deployment phase — one point in the
	// security-vs-anonymity-set trade-off the paper flags as an open
	// issue ("finding an interim solution that balances security and
	// privacy with performance and efficiency").
	PreferSGX bool

	enclave *core.Enclave
	cstate  *attest.ChallengerState
	shim    *netsim.IOShim
	meter   *core.Meter
	rng     *rand.Rand

	// retry, when set, arms every network operation with deadlines and
	// bounded retries (see SetRetryPolicy); nil is one blocking attempt.
	retry       *attest.RetryPolicy
	recvTimeout time.Duration

	// Attestations counts remote attestations this client performed
	// (Table 3's "Tor network (Client)" row: one per authority).
	Attestations int
	// Retries counts retried attempts (attestation re-runs, circuit
	// re-picks) and Rebuilds counts full circuit teardown/rebuild cycles.
	Retries  int
	Rebuilds int
}

// SetRetryPolicy makes the client fault-tolerant: directory fetches and
// OR attestations retry with backoff, cell receives time out instead of
// blocking forever, and failed circuit builds re-pick a path around the
// relay they blame. Zero fields take DefaultRetryPolicy's values,
// resolved here once. Without it, behavior is the seed's: block, and
// fail permanently on the first lost message.
func (c *Client) SetRetryPolicy(pol attest.RetryPolicy) {
	pol = pol.WithDefaults()
	c.retry = &pol
	c.recvTimeout = pol.RecvTimeout
	if c.shim != nil {
		c.shim.SetRecvTimeout(pol.RecvTimeout)
	}
}

// recv reads from conn under the client's receive deadline, charging the
// timeout's busy-wait cost when it expires (same accounting as the
// enclave I/O shim).
func (c *Client) recv(conn *netsim.Conn) ([]byte, error) {
	raw, err := conn.RecvTimeout(c.recvTimeout)
	if errors.Is(err, netsim.ErrTimeout) {
		c.meter.ChargeNormal(core.CostRecvTimeout)
	}
	return raw, err
}

// ClientConfig configures a client.
type ClientConfig struct {
	Name string
	SGX  bool
	// PreferSGX favors SGX relays in path selection (incremental phase).
	PreferSGX bool
	// Whitelist is the set of enclave measurements the client accepts
	// when attesting (authority build, OR build).
	Whitelist []core.Measurement
	Seed      int64
}

// clientProgram is the measured client build (challenger role only).
func clientProgram(cst *attest.ChallengerState) *core.Program {
	prog := &core.Program{
		Name:     "tor-client",
		Version:  "1.0",
		Handlers: map[string]core.Handler{},
	}
	attest.AddChallengerHandlers(prog, cst)
	return prog
}

// NewClient creates a client on the host.
func NewClient(host *netsim.SimHost, cfg ClientConfig) (*Client, error) {
	c := &Client{
		Name:      cfg.Name,
		Host:      host,
		SGX:       cfg.SGX,
		PreferSGX: cfg.PreferSGX,
		meter:     host.Platform().HostMeter,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.SGX {
		c.cstate = attest.NewChallengerState(attest.Policy{
			AllowedEnclaves: cfg.Whitelist,
			RejectDebug:     true,
		})
		signer, err := core.NewSigner()
		if err != nil {
			return nil, err
		}
		enc, err := host.Platform().Launch(clientProgram(c.cstate), signer)
		if err != nil {
			return nil, err
		}
		c.enclave = enc
		c.meter = enc.Meter()
		c.shim = netsim.NewMsgShim(host, enc.Meter())
		enc.BindHost(c.shim)
	}
	return c, nil
}

// Meter returns the meter the client's work is charged on: the
// challenger enclave's meter for SGX clients, the host meter otherwise.
// The open-loop load rigs drain it per request to price the client side
// of a circuit exchange.
func (c *Client) Meter() *core.Meter { return c.meter }

// FetchConsensus retrieves the consensus from every authority and keeps
// the descriptors a majority of the reachable authorities agrees on, in
// name order. An SGX client remote-attests each authority before
// trusting its answer.
func (c *Client) FetchConsensus(authorityHosts []string) ([]Descriptor, error) {
	var views [][]Descriptor
	for _, ah := range authorityHosts {
		ds, err := c.fetchOne(ah)
		if err != nil {
			continue // dead or refused authority
		}
		views = append(views, ds)
	}
	if len(views) == 0 {
		return nil, fmt.Errorf("tor: no authority reachable")
	}
	return majority(views), nil
}

func (c *Client) fetchOne(authorityHost string) ([]Descriptor, error) {
	var conn *netsim.Conn
	var err error
	if c.SGX {
		if conn, err = c.dialAttested(authorityHost, DirService); err != nil {
			return nil, fmt.Errorf("tor: authority %s failed attestation: %w", authorityHost, err)
		}
	} else if conn, err = c.Host.Dial(authorityHost, DirService); err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send([]byte("consensus")); err != nil {
		return nil, err
	}
	raw, err := c.recv(conn)
	if err != nil {
		return nil, err
	}
	return decodeDescriptors(raw)
}

// dialAttested dials service on host, sends the "attest" banner and
// remote-attests the peer, all under the client's retry policy. Each
// attempt counts in Attestations.
func (c *Client) dialAttested(host, service string) (*netsim.Conn, error) {
	dial := func() (*netsim.Conn, error) {
		conn, err := c.Host.Dial(host, service)
		if err != nil {
			return nil, err
		}
		if err := conn.Send([]byte("attest")); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
	conn, _, _, retries, err := attest.ChallengeRetry(nil, "", c.enclave, c.shim, c.cstate, dial, true, c.retry)
	c.Retries += retries
	c.Attestations += 1 + retries
	return conn, err
}

// AttestOR remote-attests an onion router directly (fully SGX-enabled
// setting: clients verify relays by hardware, no directory votes
// needed).
func (c *Client) AttestOR(d Descriptor) error {
	if !c.SGX {
		return fmt.Errorf("tor: non-SGX client cannot attest")
	}
	conn, err := c.dialAttested(d.Host, ORService)
	if err != nil {
		return fmt.Errorf("tor: OR %s failed attestation: %w", d.Name, err)
	}
	conn.Close()
	return nil
}

// Circuit is a client-side circuit handle.
type Circuit struct {
	client *Client
	conn   *netsim.Conn
	circID uint32
	hops   []*sgxcrypto.Channel
	path   []Descriptor
	nextSt uint16
}

// Path returns the circuit's relays.
func (c *Circuit) Path() []Descriptor { return c.path }

// PickPath selects a circuit path from a consensus: distinct relays, the
// last one an exit.
func (c *Client) PickPath(consensus []Descriptor, length int) ([]Descriptor, error) {
	return c.PickPathFor(consensus, length, "")
}

// PickPathFor selects a path whose exit's policy permits the destination
// service, preferring a Guard-flagged relay for the first hop (as Tor
// does for its entry guards).
func (c *Client) PickPathFor(consensus []Descriptor, length int, destService string) ([]Descriptor, error) {
	pool := consensus
	if c.PreferSGX {
		// Use the hardware-verified subset when it can sustain a full
		// path with an exit; otherwise fall back to the mixed pool
		// (shrinking the pool too far hurts anonymity more than the
		// unverified relays hurt integrity).
		var sgxPool []Descriptor
		sgxExits := 0
		for _, d := range consensus {
			if d.SGX {
				sgxPool = append(sgxPool, d)
				if d.Exit && (destService == "" || d.Policy.Allows(destService)) {
					sgxExits++
				}
			}
		}
		if len(sgxPool) >= length && sgxExits > 0 {
			pool = sgxPool
		}
	}
	var exits, relays, guards []Descriptor
	for _, d := range pool {
		if d.Exit && (destService == "" || d.Policy.Allows(destService)) {
			exits = append(exits, d)
		}
		if d.Guard {
			guards = append(guards, d)
		}
		relays = append(relays, d)
	}
	if len(exits) == 0 {
		return nil, fmt.Errorf("tor: no exit permits service %q", destService)
	}
	if len(relays) < length {
		return nil, fmt.Errorf("tor: consensus too small for a %d-hop path", length)
	}
	exit := exits[c.rng.Intn(len(exits))]
	used := map[string]bool{exit.Name: true}
	path := []Descriptor{}
	// Entry hop: prefer a guard distinct from the exit.
	var entryPool []Descriptor
	for _, g := range guards {
		if !used[g.Name] {
			entryPool = append(entryPool, g)
		}
	}
	if length > 1 && len(entryPool) > 0 {
		entry := entryPool[c.rng.Intn(len(entryPool))]
		used[entry.Name] = true
		path = append(path, entry)
	}
	for len(path) < length-1 {
		cand := relays[c.rng.Intn(len(relays))]
		if used[cand.Name] {
			continue
		}
		used[cand.Name] = true
		path = append(path, cand)
	}
	return append(path, exit), nil
}

// BuildCircuit telescopes a circuit along the path: CREATE to the entry,
// then RelayExtend through the growing tunnel, with a fresh DH per hop.
func (c *Client) BuildCircuit(path []Descriptor) (*Circuit, error) {
	circ, _, err := c.buildBlamed(path)
	return circ, err
}

// buildBlamed is BuildCircuit returning which hop it blames for a
// failure (an index into path, or -1 when no relay is at fault). Dial
// and CREATE failures blame the entry; an EXTEND failure blames the hop
// being added — the client cannot see which relay inside the tunnel
// actually misbehaved, so the extend target is the best suspect, and
// BuildCircuitRetry's fresh random paths absorb a wrong guess.
func (c *Client) buildBlamed(path []Descriptor) (*Circuit, int, error) {
	if len(path) == 0 {
		return nil, -1, fmt.Errorf("tor: empty path")
	}
	conn, err := c.Host.Dial(path[0].Host, ORService)
	if err != nil {
		return nil, 0, err
	}
	circ := &Circuit{client: c, conn: conn, circID: uint32(c.rng.Int31()) | 1, path: path, nextSt: 1}

	// Hop 1: CREATE.
	dh, err := sgxcrypto.GenerateKey(c.meter, sgxcrypto.StandardGroup(), nil)
	if err != nil {
		conn.Close()
		return nil, -1, err
	}
	create := Cell{CircID: circ.circID, Cmd: CmdCreate, Payload: dh.Public.Bytes()}
	out, err := create.Marshal()
	if err != nil {
		conn.Close()
		return nil, -1, err
	}
	if err := conn.Send(out); err != nil {
		conn.Close()
		return nil, 0, err
	}
	created, err := c.expectCell(conn, circ.circID, CmdCreated)
	if err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("tor: CREATE to %s: %w", path[0].Name, err)
	}
	ch, err := c.deriveHop(dh, created.Payload)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	circ.hops = append(circ.hops, ch)

	// Hops 2..n: EXTEND through the tunnel.
	for i, hop := range path[1:] {
		dh, err := sgxcrypto.GenerateKey(c.meter, sgxcrypto.StandardGroup(), nil)
		if err != nil {
			circ.Close()
			return nil, -1, err
		}
		data := append(append([]byte(hop.Host), 0), dh.Public.Bytes()...)
		rc := RelayCell{Cmd: RelayExtend, Data: data}
		reply, err := circ.exchange(rc)
		if err != nil {
			circ.Close()
			return nil, 1 + i, fmt.Errorf("tor: extending to %s: %w", hop.Name, err)
		}
		if reply.Cmd != RelayExtended {
			circ.Close()
			return nil, 1 + i, fmt.Errorf("tor: extend to %s refused: %s", hop.Name, reply.Data)
		}
		ch, err := c.deriveHop(dh, reply.Data)
		if err != nil {
			circ.Close()
			return nil, 1 + i, err
		}
		circ.hops = append(circ.hops, ch)
	}
	return circ, -1, nil
}

// filterDescriptors drops excluded relays from a consensus copy.
func filterDescriptors(ds []Descriptor, excluded map[string]bool) []Descriptor {
	if len(excluded) == 0 {
		return ds
	}
	out := make([]Descriptor, 0, len(ds))
	for _, d := range ds {
		if !excluded[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

// BuildCircuitRetry picks a path and builds a circuit, retrying with
// fresh random paths on the client's retry policy (attest.RetryPolicy.Do;
// nil is one pick and one build) when relays fail. Blamed relays are
// excluded from subsequent picks for the duration of the call (blame is
// forgiven if it starves the pool — a wrong guess must not make the
// build impossible). A pick the full consensus cannot satisfy is final.
// Each retry charges core.CostRetryAttempt.
func (c *Client) BuildCircuitRetry(consensus []Descriptor, length int, destService string) (*Circuit, error) {
	var circ *Circuit
	var pickErr error
	excluded := make(map[string]bool)
	retries, err := c.retry.Do(c.meter, func(error) bool { return pickErr == nil }, func(int) error {
		path, err := c.PickPathFor(filterDescriptors(consensus, excluded), length, destService)
		if err != nil && len(excluded) > 0 {
			clear(excluded)
			path, err = c.PickPathFor(consensus, length, destService)
		}
		if err != nil {
			pickErr = err // the full consensus cannot support the path
			return err
		}
		var blamed int
		circ, blamed, err = c.buildBlamed(path)
		if blamed >= 0 && blamed < len(path) {
			excluded[path[blamed].Name] = true
		}
		return err
	})
	c.Retries += retries
	if err != nil && pickErr == nil {
		err = fmt.Errorf("tor: circuit build failed after %d attempts: %w", retries+1, err)
	}
	return circ, err
}

// RebuildCircuit tears down a dead circuit and builds a replacement —
// the relay-failure recovery path. Nothing is excluded a priori: the
// build-retry loop discovers which relay is unreachable and routes
// around it.
func (c *Client) RebuildCircuit(dead *Circuit, consensus []Descriptor, length int, destService string) (*Circuit, error) {
	if dead != nil {
		dead.Close()
	}
	c.Rebuilds++
	return c.BuildCircuitRetry(consensus, length, destService)
}

func (c *Client) deriveHop(dh *sgxcrypto.DHKey, peerPub []byte) (*sgxcrypto.Channel, error) {
	secret, err := dh.Shared(c.meter, new(big.Int).SetBytes(peerPub))
	if err != nil {
		return nil, err
	}
	return sgxcrypto.NewChannel(c.meter, secret)
}

// expectCell reads cells until one matches (circID, cmd), honoring the
// client's receive deadline so a lost cell surfaces as ErrTimeout
// instead of wedging the circuit forever.
func (c *Client) expectCell(conn *netsim.Conn, circID uint32, cmd Command) (Cell, error) {
	for {
		raw, err := c.recv(conn)
		if err != nil {
			return Cell{}, err
		}
		cell, err := UnmarshalCell(raw)
		if err != nil {
			return Cell{}, err
		}
		if cell.CircID == circID && cell.Cmd == cmd {
			return cell, nil
		}
		if cell.Cmd == CmdDestroy {
			return Cell{}, fmt.Errorf("tor: circuit destroyed")
		}
	}
}

// exchange sends a relay cell to the current last hop and waits for the
// backward reply, stripping one onion layer per built hop.
func (circ *Circuit) exchange(rc RelayCell) (RelayCell, error) {
	c := circ.client
	payload, err := WrapForward(c.meter, circ.hops, rc.Marshal())
	if err != nil {
		return RelayCell{}, err
	}
	cell := Cell{CircID: circ.circID, Cmd: CmdRelay, Payload: payload}
	out, err := cell.Marshal()
	if err != nil {
		return RelayCell{}, err
	}
	if err := circ.conn.Send(out); err != nil {
		return RelayCell{}, err
	}
	reply, err := c.expectCell(circ.conn, circ.circID, CmdRelay)
	if err != nil {
		return RelayCell{}, err
	}
	plain, err := UnwrapBackward(c.meter, circ.hops, len(circ.hops), reply.Payload)
	if err != nil {
		return RelayCell{}, err
	}
	return UnmarshalRelay(plain)
}

// Get performs one anonymous request/response exchange with a
// destination ("host|service") through the circuit.
func (circ *Circuit) Get(dest string, request []byte) ([]byte, error) {
	sid := circ.nextSt
	circ.nextSt++
	begin, err := circ.exchange(RelayCell{Cmd: RelayBegin, StreamID: sid, Data: []byte(dest)})
	if err != nil {
		return nil, err
	}
	if begin.Cmd != RelayConnected {
		return nil, fmt.Errorf("tor: begin refused: %s", begin.Data)
	}
	data := append(append([]byte(dest), 0), request...)
	reply, err := circ.exchange(RelayCell{Cmd: RelayData, StreamID: sid, Data: data})
	if err != nil {
		return nil, err
	}
	if reply.Cmd != RelayData {
		return nil, fmt.Errorf("tor: stream error: %s", reply.Data)
	}
	return reply.Data, nil
}

// Close tears the circuit down.
func (circ *Circuit) Close() {
	cell := Cell{CircID: circ.circID, Cmd: CmdDestroy}
	if out, err := cell.Marshal(); err == nil {
		circ.conn.Send(out)
	}
	circ.conn.Close()
}
