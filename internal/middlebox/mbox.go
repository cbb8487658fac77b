package middlebox

import (
	"encoding/binary"
	"fmt"
	"sync"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/tlslite"
)

// DataService is the middlebox's forwarding service (what clients and
// upstream middleboxes dial).
const DataService = "mbox.data"

// CtlService is the middlebox's control service (attestation + key
// provisioning).
const CtlService = "mbox.ctl"

// MboxVersion is the community-verified middlebox build.
const MboxVersion = "1.0"

// Alert is one DPI hit inside inspected traffic.
type Alert struct {
	Flow      uint32
	Direction tlslite.Direction
	Match     Match
}

// mboxState is the middlebox's enclave-private state: the attestation
// sessions, the provisioned key ring, the DPI automaton, and the alerts.
// TLS session keys live only here — the untrusted host forwards opaque
// frames and never sees a key.
type mboxState struct {
	attest *attest.TargetState
	dpi    *DPI

	mu           sync.Mutex
	requireBoth  bool
	keyring      []tlslite.Keys
	endorsements map[tlslite.Keys]map[string]bool // key block → endorsing party names
	alerts       []Alert
}

// provision installs a key block endorsed by a named party. With
// requireBoth set, inspection of that session starts only once two
// distinct parties (both endpoints, §3.3 "middleboxes that both
// end-points agree upon") have endorsed the same key block.
func (st *mboxState) provision(party string, keys tlslite.Keys) (active bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.endorsements[keys] == nil {
		st.endorsements[keys] = make(map[string]bool)
	}
	st.endorsements[keys][party] = true
	need := 1
	if st.requireBoth {
		need = 2
	}
	if len(st.endorsements[keys]) >= need {
		for _, k := range st.keyring {
			if k == keys {
				return true
			}
		}
		st.keyring = append(st.keyring, keys)
		return true
	}
	return false
}

// inspect tries to open a forwarded frame with every provisioned key
// block and scans plaintext on success. Records carry their direction
// and sequence number in a MAC-protected header, so the passive observer
// needs no per-flow counters. The frame is forwarded verbatim either way
// (passive inspection).
func (st *mboxState) inspect(m *core.Meter, flow uint32, frame []byte) {
	st.mu.Lock()
	ring := append([]tlslite.Keys(nil), st.keyring...)
	st.mu.Unlock()

	for _, keys := range ring {
		codec := tlslite.NewCodec(keys)
		dir, _, plain, err := codec.OpenAny(m, frame)
		if err != nil {
			continue
		}
		st.mu.Lock()
		for _, hit := range st.dpi.Scan(plain) {
			st.alerts = append(st.alerts, Alert{Flow: flow, Direction: dir, Match: hit})
		}
		st.mu.Unlock()
		return
	}
}

// Middlebox is a deployed in-path middlebox.
type Middlebox struct {
	Name string
	Host *netsim.SimHost
	// NextHop is "host|service" of the next element (another middlebox's
	// data service, or the server).
	NextHop string

	state   *mboxState
	enclave *core.Enclave
	shim    *netsim.IOShim

	flowMu   sync.Mutex
	nextFlow uint32
}

// Config configures a middlebox.
type Config struct {
	Name    string
	NextHop string
	// Patterns is the DPI rule set compiled into the enclave.
	Patterns []string
	// RequireBothEndpoints demands endorsement of a session's keys by
	// two distinct parties before inspecting it.
	RequireBothEndpoints bool
	Signer               *core.Signer
	// Tampered launches a modified build (for attack tests): its
	// measurement will not match the community-verified one.
	Tampered bool
}

// mboxProgram builds the middlebox enclave program.
func mboxProgram(st *mboxState, version string, patterns []string) *core.Program {
	cfg := []byte(fmt.Sprint(patterns))
	prog := &core.Program{
		Name:    "tls-middlebox",
		Version: version,
		Config:  cfg,
		Handlers: map[string]core.Handler{
			// mbox.provision: connID(4) ‖ party-name-len(1) ‖ name ‖ sealed keys
			"mbox.provision": func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 5 {
					return nil, fmt.Errorf("middlebox: short provision arg")
				}
				cid := binary.LittleEndian.Uint32(arg[:4])
				nameLen := int(arg[4])
				if len(arg) < 5+nameLen {
					return nil, fmt.Errorf("middlebox: short provision arg")
				}
				party := string(arg[5 : 5+nameLen])
				// A key block has exactly one valid sealed length;
				// checking it before Open keeps a wrong-sized blob —
				// even one with an authentic MAC — from charging for
				// decryption it can never put to use.
				if len(arg[5+nameLen:]) != tlslite.KeysLen+sgxcrypto.Overhead {
					return nil, fmt.Errorf("middlebox: sealed key block is %d bytes, want %d",
						len(arg[5+nameLen:]), tlslite.KeysLen+sgxcrypto.Overhead)
				}
				plain, err := st.attest.Open(env.Meter(), cid, arg[5+nameLen:])
				if err != nil {
					return nil, fmt.Errorf("middlebox: opening key block: %w", err)
				}
				keys, ok := tlslite.UnmarshalKeys(plain)
				if !ok {
					return nil, fmt.Errorf("middlebox: malformed key block")
				}
				if st.provision(party, keys) {
					return []byte{1}, nil
				}
				return []byte{0}, nil
			},
			// mbox.inspect: flow(4) ‖ frame
			"mbox.inspect": func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 4 {
					return nil, fmt.Errorf("middlebox: short inspect arg")
				}
				flow := binary.LittleEndian.Uint32(arg[:4])
				st.inspect(env.Meter(), flow, arg[4:])
				return nil, nil
			},
		},
	}
	attest.AddTargetHandlers(prog, st.attest)
	return prog
}

// Measurement returns the community-verified middlebox identity for a
// given DPI rule set — what endpoints whitelist before handing over
// session keys.
func Measurement(patterns []string, requireBoth bool) core.Measurement {
	st := &mboxState{attest: attest.NewTargetState(), requireBoth: requireBoth}
	return core.MeasureProgram(mboxProgram(st, MboxVersion, patterns))
}

// Launch starts a middlebox on the host.
func Launch(host *netsim.SimHost, cfg Config) (*Middlebox, error) {
	dpi, err := NewDPI(cfg.Patterns)
	if err != nil {
		return nil, err
	}
	st := &mboxState{
		attest:       attest.NewTargetState(),
		dpi:          dpi,
		requireBoth:  cfg.RequireBothEndpoints,
		endorsements: make(map[tlslite.Keys]map[string]bool),
	}
	version := MboxVersion
	if cfg.Tampered {
		version = MboxVersion + "-exfiltrate"
	}
	signer := cfg.Signer
	if signer == nil {
		signer, err = core.NewSigner()
		if err != nil {
			return nil, err
		}
	}
	enc, err := host.Platform().Launch(mboxProgram(st, version, cfg.Patterns), signer)
	if err != nil {
		return nil, err
	}
	shim := netsim.NewMsgShim(host, enc.Meter())
	var mh netsim.MultiHost
	mh.Mount("msg.", shim)
	enc.BindHost(&mh)

	mb := &Middlebox{Name: cfg.Name, Host: host, NextHop: cfg.NextHop, state: st, enclave: enc, shim: shim}

	dl, err := host.Listen(DataService)
	if err != nil {
		return nil, err
	}
	go dl.Serve(mb.serveData)
	cl, err := host.Listen(CtlService)
	if err != nil {
		return nil, err
	}
	go cl.Serve(mb.serveCtl)
	return mb, nil
}

// Enclave returns the middlebox enclave.
func (mb *Middlebox) Enclave() *core.Enclave { return mb.enclave }

// Alerts returns the DPI alerts raised so far.
func (mb *Middlebox) Alerts() []Alert {
	mb.state.mu.Lock()
	defer mb.state.mu.Unlock()
	return append([]Alert(nil), mb.state.alerts...)
}

// serveData splices a client-side connection to the next hop, passing
// every frame through the enclave for inspection.
func (mb *Middlebox) serveData(down *netsim.Conn) {
	sep := -1
	for i := 0; i < len(mb.NextHop); i++ {
		if mb.NextHop[i] == '|' {
			sep = i
			break
		}
	}
	if sep < 0 {
		down.Close()
		return
	}
	up, err := mb.Host.Dial(mb.NextHop[:sep], mb.NextHop[sep+1:])
	if err != nil {
		down.Close()
		return
	}
	mb.flowMu.Lock()
	mb.nextFlow++
	flow := mb.nextFlow
	mb.flowMu.Unlock()

	splice := func(src, dst *netsim.Conn) {
		for {
			frame, err := src.Recv()
			if err != nil {
				dst.Close()
				return
			}
			arg := make([]byte, 4+len(frame))
			binary.LittleEndian.PutUint32(arg[:4], flow)
			copy(arg[4:], frame)
			mb.enclave.Call("mbox.inspect", arg)
			if err := dst.Send(frame); err != nil {
				src.Close()
				return
			}
		}
	}
	go splice(down, up)
	go splice(up, down)
}

// serveCtl answers attestation + provisioning on the control plane.
func (mb *Middlebox) serveCtl(conn *netsim.Conn) {
	cid, err := attest.Respond(nil, "", mb.enclave, mb.shim, mb.Host, conn)
	if err != nil {
		conn.Close()
		return
	}
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		// raw: party-name-len(1) ‖ name ‖ sealed key block
		arg := make([]byte, 4+len(raw))
		binary.LittleEndian.PutUint32(arg[:4], cid)
		copy(arg[4:], raw)
		out, err := mb.enclave.Call("mbox.provision", arg)
		if err != nil {
			conn.Close()
			return
		}
		if err := conn.Send(out); err != nil {
			return
		}
	}
}

// Provision is the endpoint-side driver: attest the middlebox from the
// endpoint's enclave, then send the session key block over the secure
// channel. Returns whether inspection is active (false when the
// middlebox still awaits the other endpoint's endorsement).
func Provision(endpoint *core.Enclave, shim *netsim.IOShim, host *netsim.SimHost,
	mboxHost, party string, keys tlslite.Keys) (bool, error) {
	conn, err := host.Dial(mboxHost, CtlService)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	cid, _, err := attest.Challenge(nil, "", endpoint, shim, conn, true)
	if err != nil {
		return false, fmt.Errorf("middlebox: attestation failed: %w", err)
	}
	sealed, err := endpoint.Call("endpoint.sealkeys", sealArgs(cid, keys))
	if err != nil {
		return false, err
	}
	msg := make([]byte, 1+len(party)+len(sealed))
	msg[0] = byte(len(party))
	copy(msg[1:], party)
	copy(msg[1+len(party):], sealed)
	resp, err := conn.Request(msg)
	if err != nil {
		return false, err
	}
	return len(resp) == 1 && resp[0] == 1, nil
}

func sealArgs(cid uint32, keys tlslite.Keys) []byte {
	out := make([]byte, 4, 4+96)
	binary.LittleEndian.PutUint32(out[:4], cid)
	return append(out, keys.Marshal()...)
}

// EndpointState is the endpoint-side enclave state used to provision
// middleboxes: the challenger role plus a handler that seals key blocks
// under the attested channel.
type EndpointState struct {
	Attest *attest.ChallengerState
}

// NewEndpointState builds endpoint state whose policy pins the verified
// middlebox measurement(s).
func NewEndpointState(allowed []core.Measurement) *EndpointState {
	return &EndpointState{Attest: attest.NewChallengerState(attest.Policy{
		AllowedEnclaves: allowed,
		RejectDebug:     true,
	})}
}

// EndpointProgram builds an endpoint enclave program (e.g. the
// enterprise TLS client) able to attest and provision middleboxes.
func EndpointProgram(name string, st *EndpointState) *core.Program {
	prog := &core.Program{
		Name:    name,
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"endpoint.sealkeys": func(env *core.Env, arg []byte) ([]byte, error) {
				if len(arg) < 4 {
					return nil, fmt.Errorf("middlebox: short sealkeys arg")
				}
				cid := binary.LittleEndian.Uint32(arg[:4])
				return st.Attest.Seal(env.Meter(), cid, arg[4:])
			},
		},
	}
	attest.AddChallengerHandlers(prog, st.Attest)
	return prog
}
