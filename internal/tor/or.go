package tor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/wire"
	"sgxnet/internal/xcall"
)

// ORService is the netsim service onion routers listen on.
const ORService = "or"

// ORVersion is the community-verified onion router build. A tampered
// build carries a different version string and therefore a different
// measurement — which is exactly how attestation-based admission spots
// it.
const ORVersion = "1.0"

// Behavior selects an OR's (mis)behavior for attack simulation.
type Behavior uint8

const (
	// BehaveHonest follows the protocol.
	BehaveHonest Behavior = iota
	// BehaveTamperExit modifies stream responses at the exit — the
	// "spoiled onions" exit tampering attack.
	BehaveTamperExit
	// BehaveSnoop records stream plaintext at the exit — the "one bad
	// apple" profiling attack.
	BehaveSnoop
)

// circKey addresses a circuit hop by (link, circuit ID).
type circKey struct {
	link uint32
	circ uint32
}

// circuit is one OR's per-circuit state.
type circuit struct {
	key     *sgxcrypto.Channel
	prev    circKey // toward the client
	next    circKey // toward the exit (valid when hasNext)
	hasNext bool
	// pendingExtend is set while a CREATE to the next hop is in flight.
	pendingExtend bool
}

// orState is the onion router logic — a cell-driven state machine shared
// by the native and the in-enclave deployments. All I/O leaves through
// the host io each cell is handled with: net.send puts a cell on a link,
// tor.dial opens a link to another OR, tor.stream runs one exit
// request/response. In the enclave io is the handler's Env, so every
// send, dial and stream is an OCALL.
type orState struct {
	name   string
	exit   bool
	behv   Behavior
	policy ExitPolicy

	mu       sync.Mutex
	circuits map[circKey]*circuit
	byNext   map[circKey]*circuit
	nextCirc uint32
	snoopLog []string
}

func newORState(name string, exit bool, behv Behavior) *orState {
	return &orState{
		name:     name,
		exit:     exit,
		behv:     behv,
		circuits: make(map[circKey]*circuit),
		byNext:   make(map[circKey]*circuit),
		nextCirc: 1,
	}
}

// SnoopLog returns what a snooping exit recorded.
func (s *orState) SnoopLog() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.snoopLog...)
}

// send puts a cell on a link.
func send(io core.Host, link uint32, cell []byte) error {
	_, err := io.OCall("net.send", netsim.EncodeSend(link, cell))
	return err
}

// dial opens a link to another OR's host. The link ID comes from the
// untrusted host, so its length is checked.
func dial(io core.Host, orHost string) (uint32, error) {
	out, err := io.OCall("tor.dial", []byte(orHost))
	if err != nil {
		return 0, err
	}
	if len(out) != 4 {
		return 0, fmt.Errorf("tor: malformed link ID from host")
	}
	return binary.LittleEndian.Uint32(out), nil
}

// onCell processes one inbound cell from a link.
func (s *orState) onCell(m *core.Meter, io core.Host, link uint32, raw []byte) error {
	cell, err := UnmarshalCell(raw)
	if err != nil {
		return err
	}
	key := circKey{link: link, circ: cell.CircID}
	switch cell.Cmd {
	case CmdCreate:
		return s.onCreate(m, io, key, cell.Payload)
	case CmdCreated:
		return s.onCreated(m, io, key, cell.Payload)
	case CmdRelay:
		return s.onRelay(m, io, key, cell.Payload)
	case CmdDestroy:
		s.destroy(key)
		return nil
	default:
		return fmt.Errorf("tor: %s: unknown cell %v", s.name, cell.Cmd)
	}
}

// onCreate answers a circuit-open: run the responder half of the DH.
func (s *orState) onCreate(m *core.Meter, io core.Host, key circKey, payload []byte) error {
	clientPub := new(big.Int).SetBytes(payload)
	dh, err := sgxcrypto.GenerateKey(m, sgxcrypto.StandardGroup(), nil)
	if err != nil {
		return err
	}
	secret, err := dh.Shared(m, clientPub)
	if err != nil {
		return err
	}
	ch, err := sgxcrypto.NewChannel(m, secret)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.circuits[key] = &circuit{key: ch, prev: key}
	s.mu.Unlock()
	reply := Cell{CircID: key.circ, Cmd: CmdCreated, Payload: dh.Public.Bytes()}
	out, err := reply.Marshal()
	if err != nil {
		return err
	}
	return send(io, key.link, out)
}

// onCreated completes an extension this OR initiated on behalf of a
// client: forward the new hop's DH public value backward.
func (s *orState) onCreated(m *core.Meter, io core.Host, key circKey, payload []byte) error {
	s.mu.Lock()
	circ := s.byNext[key]
	if circ == nil || !circ.pendingExtend {
		s.mu.Unlock()
		return fmt.Errorf("tor: %s: CREATED for unknown extension", s.name)
	}
	circ.pendingExtend = false
	circ.hasNext = true
	s.mu.Unlock()
	rc := RelayCell{Cmd: RelayExtended, Data: payload}
	return s.sendBack(m, io, circ, rc.Marshal())
}

// onRelay handles a relay cell, distinguishing forward (from the client
// side) and backward (from the next hop) directions.
func (s *orState) onRelay(m *core.Meter, io core.Host, key circKey, payload []byte) error {
	s.mu.Lock()
	if circ, ok := s.byNext[key]; ok { // backward direction
		s.mu.Unlock()
		sealed, err := addBackward(m, circ.key, payload)
		if err != nil {
			return err
		}
		cell := Cell{CircID: circ.prev.circ, Cmd: CmdRelay, Payload: sealed}
		out, err := cell.Marshal()
		if err != nil {
			return err
		}
		return send(io, circ.prev.link, out)
	}
	circ, ok := s.circuits[key]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("tor: %s: relay on unknown circuit %v", s.name, key)
	}
	rest, deliver, err := peelForward(m, circ.key, payload)
	if err != nil {
		// Unrecognized or tampered cell: tear the circuit down and tell
		// the client side, so it fails fast instead of waiting forever.
		if out, merr := (&Cell{CircID: key.circ, Cmd: CmdDestroy}).Marshal(); merr == nil {
			send(io, key.link, out)
		}
		s.destroy(key)
		return err
	}
	if !deliver {
		s.mu.Lock()
		next, hasNext := circ.next, circ.hasNext
		s.mu.Unlock()
		if !hasNext {
			return fmt.Errorf("tor: %s: forward-marked cell at last hop", s.name)
		}
		cell := Cell{CircID: next.circ, Cmd: CmdRelay, Payload: rest}
		out, err := cell.Marshal()
		if err != nil {
			return err
		}
		return send(io, next.link, out)
	}
	rc, err := UnmarshalRelay(rest)
	if err != nil {
		return err
	}
	return s.handleRelay(m, io, circ, rc)
}

// handleRelay executes a relay command addressed to this hop.
func (s *orState) handleRelay(m *core.Meter, io core.Host, circ *circuit, rc RelayCell) error {
	switch rc.Cmd {
	case RelayExtend:
		target := string(rc.Data[:bytes.IndexByte(rc.Data, 0)])
		clientPub := rc.Data[bytes.IndexByte(rc.Data, 0)+1:]
		link, err := dial(io, target)
		if err != nil {
			return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayEnd, Data: []byte(err.Error())}).Marshal())
		}
		s.mu.Lock()
		outCirc := s.nextCirc
		s.nextCirc++
		circ.next = circKey{link: link, circ: outCirc}
		circ.pendingExtend = true
		s.byNext[circ.next] = circ
		s.mu.Unlock()
		cell := Cell{CircID: outCirc, Cmd: CmdCreate, Payload: clientPub}
		out, err := cell.Marshal()
		if err != nil {
			return err
		}
		return send(io, link, out)

	case RelayBegin:
		if !s.exit {
			return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayEnd, StreamID: rc.StreamID, Data: []byte("not an exit")}).Marshal())
		}
		// Streams are request/response in this substrate; BEGIN just
		// acknowledges — the destination is dialed per DATA exchange.
		return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayConnected, StreamID: rc.StreamID}).Marshal())

	case RelayData:
		if !s.exit {
			return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayEnd, StreamID: rc.StreamID, Data: []byte("not an exit")}).Marshal())
		}
		sep := bytes.IndexByte(rc.Data, 0)
		if sep < 0 {
			return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayEnd, StreamID: rc.StreamID, Data: []byte("bad begin")}).Marshal())
		}
		dest, req := string(rc.Data[:sep]), rc.Data[sep+1:]
		if svcSep := bytes.IndexByte([]byte(dest), '|'); svcSep >= 0 {
			if !s.policy.Allows(dest[svcSep+1:]) {
				return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayEnd, StreamID: rc.StreamID, Data: []byte("exit policy refused")}).Marshal())
			}
		}
		if s.behv == BehaveSnoop {
			// The bad-apple attack: the exit sees, and records, the
			// plaintext of every stream it carries.
			s.mu.Lock()
			s.snoopLog = append(s.snoopLog, fmt.Sprintf("%s → %q", dest, req))
			s.mu.Unlock()
		}
		resp, err := io.OCall("tor.stream", rc.Data) // dest ‖ 0 ‖ req
		if err != nil {
			return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayEnd, StreamID: rc.StreamID, Data: []byte(err.Error())}).Marshal())
		}
		if s.behv == BehaveTamperExit {
			// Exit tampering: the client has no end-to-end integrity, so
			// a modified payload re-enters the onion unnoticed.
			resp = append([]byte("EVIL:"), resp...)
		}
		return s.sendBack(m, io, circ, (&RelayCell{Cmd: RelayData, StreamID: rc.StreamID, Data: resp}).Marshal())

	case RelayEnd:
		return nil

	default:
		return fmt.Errorf("tor: %s: unexpected relay command %d", s.name, rc.Cmd)
	}
}

// sendBack seals a relay payload with this hop's key and sends it toward
// the client.
func (s *orState) sendBack(m *core.Meter, io core.Host, circ *circuit, relay []byte) error {
	sealed, err := addBackward(m, circ.key, relay)
	if err != nil {
		return err
	}
	cell := Cell{CircID: circ.prev.circ, Cmd: CmdRelay, Payload: sealed}
	out, err := cell.Marshal()
	if err != nil {
		return err
	}
	return send(io, circ.prev.link, out)
}

func (s *orState) destroy(key circKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if circ, ok := s.circuits[key]; ok {
		delete(s.circuits, key)
		if circ.hasNext || circ.pendingExtend {
			delete(s.byNext, circ.next)
		}
	}
}

// OR is a deployed onion router: the state machine plus its host runtime
// (and, in the SGX deployment, the enclave it runs in).
type OR struct {
	Name  string
	Host  *netsim.SimHost
	Exit  bool
	Guard bool
	SGX   bool

	state      *orState
	enclave    *core.Enclave
	shim       *netsim.IOShim      // data-plane shim: net.send (SGX ORs)
	attestShim *netsim.IOShim      // control-plane shim for attestation
	tstate     *attest.TargetState // attestation target (SGX ORs)

	// xb is an SGX OR's enclave boundary (ORConfig.Xcall): inbound cells
	// enter through it, and cell sends leave through what it puts in
	// front of the data-plane shim — a ring when switchless.
	// Attestation (msg.*), dials and exit streams (tor.*) stay on the
	// synchronous crossing: they are control plane, not hot.
	xb *xcall.Boundary
	// enter hands one inbound cell to the OR logic: through the enclave
	// boundary for an SGX OR, in-process for a native one.
	enter func(link uint32, raw []byte) error

	mu       sync.Mutex
	links    map[uint32]*netsim.Conn
	nextLink uint32 // native ORs; an SGX OR's links are shim connIDs
	listener *netsim.Listener
	meter    *core.Meter
}

// ExitPolicy restricts which destination services an exit serves. An
// empty AllowedServices list allows everything.
type ExitPolicy struct {
	AllowedServices []string
}

// Allows reports whether the policy permits a destination service.
func (p ExitPolicy) Allows(service string) bool {
	if len(p.AllowedServices) == 0 {
		return true
	}
	for _, s := range p.AllowedServices {
		if s == service {
			return true
		}
	}
	return false
}

// Descriptor describes an OR for directories/DHT.
type Descriptor struct {
	Name string
	Host string
	Exit bool
	SGX  bool
	// Guard marks relays stable enough for the first hop.
	Guard bool
	// Policy is the exit policy (meaningful when Exit).
	Policy ExitPolicy
}

func init() { wire.Pin(Descriptor{}, []Descriptor{{}}) }

// Descriptor returns the OR's directory descriptor.
func (o *OR) Descriptor() Descriptor {
	return Descriptor{Name: o.Name, Host: o.Host.Name(), Exit: o.Exit, SGX: o.SGX,
		Guard: o.Guard, Policy: o.state.policy}
}

// SnoopLog exposes a malicious exit's recordings (attack verification).
func (o *OR) SnoopLog() []string { return o.state.SnoopLog() }

// Enclave returns the OR's enclave (nil for native ORs).
func (o *OR) Enclave() *core.Enclave { return o.enclave }

// ORConfig configures a launched OR.
type ORConfig struct {
	Name     string
	Exit     bool
	Behavior Behavior
	// SGX runs the OR inside an enclave. A non-honest behavior then
	// requires a tampered build, whose measurement admission checks will
	// reject.
	SGX bool
	// Version overrides the build version (default ORVersion) — used
	// when rolling out a new community release (§4).
	Version string
	// Guard marks the relay first-hop eligible.
	Guard bool
	// ExitPolicy restricts an exit's destinations.
	ExitPolicy ExitPolicy
	// Xcall, when non-nil and SGX is set, routes cell relaying through
	// switchless rings sized by this config instead of one
	// EENTER/EEXIT (in) and one EEXIT/ERESUME (out) per cell.
	Xcall *xcall.Config
}

// LaunchOR starts an onion router on the host.
func LaunchOR(host *netsim.SimHost, cfg ORConfig) (*OR, error) {
	o := &OR{
		Name:  cfg.Name,
		Host:  host,
		Exit:  cfg.Exit,
		Guard: cfg.Guard,
		SGX:   cfg.SGX,
		state: newORState(cfg.Name, cfg.Exit, cfg.Behavior),
		links: make(map[uint32]*netsim.Conn),
	}
	o.state.policy = cfg.ExitPolicy
	if cfg.SGX {
		if err := o.launchEnclave(cfg); err != nil {
			return nil, err
		}
	} else {
		o.meter = host.Platform().HostMeter
		io := core.HostFunc(o.hostIO)
		o.enter = func(link uint32, raw []byte) error { return o.state.onCell(o.meter, io, link, raw) }
	}
	l, err := host.Listen(ORService)
	if err != nil {
		return nil, err
	}
	o.listener = l
	go l.Serve(o.serveConn)
	return o, nil
}

// ORProgram is the measured onion-router build: version and behavior are
// part of the identity. Only {version ORVersion, BehaveHonest} is the
// community-verified build; anything else is a tampered binary.
func ORProgram(state *orState, tstate *attest.TargetState, version string, behv Behavior) *core.Program {
	cfg := []byte{byte(behv)}
	prog := &core.Program{
		Name:    "tor-or",
		Version: version,
		Config:  cfg,
		Handlers: map[string]core.Handler{
			"or.cell": func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 4 {
					return nil, fmt.Errorf("tor: short cell arg")
				}
				link := binary.LittleEndian.Uint32(arg[:4])
				return nil, state.onCell(env.Meter(), env, link, arg[4:])
			},
		},
	}
	attest.AddTargetHandlers(prog, tstate)
	return prog
}

// HonestORMeasurement is the whitelisted OR identity of the default
// release.
func HonestORMeasurement() core.Measurement {
	return ORMeasurementForVersion(ORVersion)
}

// ORMeasurementForVersion computes the honest OR identity of a given
// release version (what a community registry publishes per release).
func ORMeasurementForVersion(version string) core.Measurement {
	return core.MeasureProgram(ORProgram(newORState("m", false, BehaveHonest), attest.NewTargetState(), version, BehaveHonest))
}

func (o *OR) launchEnclave(cfg ORConfig) error {
	version := cfg.Version
	if version == "" {
		version = ORVersion
	}
	if cfg.Behavior != BehaveHonest {
		// A misbehaving "SGX" OR is a tampered rebuild: same code base,
		// different image — hence a different, non-whitelisted
		// measurement.
		version += "-modified"
	}
	o.tstate = attest.NewTargetState()
	prog := ORProgram(o.state, o.tstate, version, cfg.Behavior)
	signer, err := core.NewSigner()
	if err != nil {
		return err
	}
	enc, err := o.Host.Platform().Launch(prog, signer)
	if err != nil {
		return err
	}
	o.enclave = enc
	o.meter = enc.Meter()
	o.shim = netsim.NewIOShim(o.Host, enc.Meter())
	o.attestShim = netsim.NewMsgShim(o.Host, enc.Meter())
	o.xb = xcall.Attach(enc, cfg.Xcall)
	var mh netsim.MultiHost
	mh.Mount("net.", o.xb.Host(o.shim))
	mh.Mount("msg.", o.attestShim)
	mh.Mount("tor.", core.HostFunc(o.torOCall))
	enc.BindHost(&mh)
	o.enter = func(link uint32, raw []byte) error {
		arg := make([]byte, 4+len(raw))
		binary.LittleEndian.PutUint32(arg[:4], link)
		copy(arg[4:], raw)
		_, err := o.xb.Call("or.cell", arg)
		return err
	}
	return nil
}

// FlushXcall drains the OR's rings and closes the shim's send window
// at a phase boundary (measurement snapshot, teardown). No-op for
// native ORs, and free for synchronous ones.
func (o *OR) FlushXcall() {
	if o.enclave != nil {
		o.xb.Flush()
	}
}

// XcallStats sums the OR's ring tallies (zero when synchronous or
// native).
func (o *OR) XcallStats() xcall.Stats {
	if o.enclave == nil {
		return xcall.Stats{}
	}
	return o.xb.Stats()
}

// hostIO serves the OR's host services in-process and charges nothing:
// net.send puts a cell on a link, tor.dial opens a link to another OR,
// tor.stream runs one exit request/response. A native OR's logic calls
// it directly; an SGX OR's reaches tor.* through torOCall and net.send
// through its data-plane shim.
func (o *OR) hostIO(service string, arg []byte) ([]byte, error) {
	switch service {
	case "net.send":
		if len(arg) < 4 {
			return nil, fmt.Errorf("tor: %s: short send", o.Name)
		}
		link := binary.LittleEndian.Uint32(arg[:4])
		o.mu.Lock()
		conn := o.links[link]
		o.mu.Unlock()
		if conn == nil {
			return nil, fmt.Errorf("tor: %s: unknown link %d", o.Name, link)
		}
		return nil, conn.Send(arg[4:])
	case "tor.dial":
		link, err := o.dialLink(string(arg))
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint32(nil, link), nil
	case "tor.stream":
		sep := bytes.IndexByte(arg, 0)
		if sep < 0 {
			return nil, fmt.Errorf("tor: %s: malformed stream", o.Name)
		}
		return o.doStream(string(arg[:sep]), arg[sep+1:])
	default:
		return nil, fmt.Errorf("tor: unknown service %q", service)
	}
}

// torOCall serves an SGX OR's tor.* OCALLs, whose crossing Env.OCall
// has charged: hostIO's services, with an exit stream paying Table 2's
// I/O cost of one call and two packets.
func (o *OR) torOCall(service string, arg []byte) ([]byte, error) {
	if service == "tor.stream" {
		o.meter.ChargeNormal(core.CostIOCallFixed + 2*core.CostIOPerPacket)
	}
	return o.hostIO(service, arg)
}

// dialLink opens a cell link to another OR and starts pumping it.
func (o *OR) dialLink(orHost string) (uint32, error) {
	conn, err := o.Host.Dial(orHost, ORService)
	if err != nil {
		return 0, err
	}
	return o.adoptConn(conn), nil
}

// doStream performs one request/response exchange with a destination
// ("host|service").
func (o *OR) doStream(dest string, req []byte) ([]byte, error) {
	sep := bytes.IndexByte([]byte(dest), '|')
	if sep < 0 {
		return nil, fmt.Errorf("tor: bad destination %q", dest)
	}
	conn, err := o.Host.Dial(dest[:sep], dest[sep+1:])
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return conn.Request(req)
}

// adoptConn registers a link and starts its read pump. An SGX OR's link
// ID is the connID its data-plane shim gives the connection, so the
// enclave's net.send addresses the link directly.
func (o *OR) adoptConn(conn *netsim.Conn) uint32 {
	o.mu.Lock()
	var link uint32
	if o.shim != nil {
		link = o.shim.Adopt(conn)
	} else {
		o.nextLink++
		link = o.nextLink
	}
	o.links[link] = conn
	o.mu.Unlock()
	go o.pump(link, conn)
	return link
}

func (o *OR) pump(link uint32, conn *netsim.Conn) {
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		o.enter(link, raw) // a bad cell must not kill the pump
	}
}

// serveConn handles an inbound link. For SGX ORs the first bytes may be
// an attestation handshake (challenge from an authority or client); a
// raw cell otherwise.
func (o *OR) serveConn(conn *netsim.Conn) {
	first, err := conn.Recv()
	if err != nil {
		return
	}
	if string(first) == "attest" && o.SGX {
		// Serve one remote attestation as target, then close.
		if _, err := attest.Respond(nil, "", o.enclave, o.attestShim, o.Host, conn); err != nil {
			conn.Close()
		}
		return
	}
	// Treat as a cell link: process the first cell, then pump.
	o.enter(o.adoptConn(conn), first)
}

// Close stops the OR.
func (o *OR) Close() {
	o.listener.Close()
	if o.enclave != nil {
		o.enclave.Destroy()
	}
	o.mu.Lock()
	for _, c := range o.links {
		c.Close()
	}
	o.mu.Unlock()
}
