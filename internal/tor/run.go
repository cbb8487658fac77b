package tor

import (
	"fmt"

	"sgxnet/internal/attest"
	"sgxnet/internal/chord"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/wire"
	"sgxnet/internal/xcall"
)

// Deployment orchestration for the paper's three phases (§3.2):
//
//	ModeBaseline      — today's Tor: nothing attested, volunteers admitted
//	                    manually.
//	ModeSGXDirectory  — authorities run in enclaves: keys and relay lists
//	                    can't be stolen or altered; compromise degrades to
//	                    denial of service.
//	ModeSGXORs        — incremental deployment: SGX ORs are admitted
//	                    automatically by attestation; tampered builds
//	                    fail the integrity check.
//	ModeSGXFull       — everything SGX-enabled; a Chord DHT tracks
//	                    membership and directory authorities disappear.
type DeployMode uint8

const (
	ModeBaseline DeployMode = iota
	ModeSGXDirectory
	ModeSGXORs
	ModeSGXFull
)

func (m DeployMode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeSGXDirectory:
		return "sgx-directory"
	case ModeSGXORs:
		return "sgx-incremental-ors"
	case ModeSGXFull:
		return "sgx-full"
	default:
		return fmt.Sprintf("DeployMode(%d)", uint8(m))
	}
}

// WebService is the destination service deployed for streams.
const WebService = "http"

// WebHost is the destination host name.
const WebHost = "web"

// NetworkConfig sizes a Tor deployment.
type NetworkConfig struct {
	Mode        DeployMode
	Authorities int
	Relays      int // non-exit ORs
	Exits       int
	Seed        int64

	// Xcall, when non-nil, makes every SGX OR relay cells switchlessly
	// through xcall rings sized by this config (see ORConfig.Xcall).
	Xcall *xcall.Config
}

// TorNet is a deployed Tor network.
type TorNet struct {
	Mode  DeployMode
	Net   *netsim.Network
	Auths []*Authority
	ORs   []*OR
	Ring  *chord.Ring // fully-SGX mode membership
	arch  *core.Signer
	seq   int
}

// Deploy builds a Tor network in the given mode, with a web destination
// host answering requests with "content:<request>".
func Deploy(cfg NetworkConfig) (_ *TorNet, err error) {
	if cfg.Authorities == 0 && cfg.Mode != ModeSGXFull {
		return nil, fmt.Errorf("tor: mode %v needs authorities", cfg.Mode)
	}
	tn := &TorNet{Mode: cfg.Mode, Net: netsim.New()}
	defer func() {
		if err != nil {
			tn.Close()
		}
	}()
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	tn.arch = arch

	// Destination web server.
	web, err := tn.Net.AddHost(WebHost, core.PlatformConfig{})
	if err != nil {
		return nil, err
	}
	wl, err := web.Listen(WebService)
	if err != nil {
		return nil, err
	}
	go wl.Serve(func(c *netsim.Conn) {
		defer c.Close()
		for {
			req, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(append([]byte("content:"), req...)); err != nil {
				return
			}
		}
	})

	// Directory authorities.
	sgxDirs := cfg.Mode >= ModeSGXDirectory && cfg.Mode != ModeSGXFull
	orMeasure := HonestORMeasurement()
	if cfg.Mode != ModeSGXFull {
		for i := 0; i < cfg.Authorities; i++ {
			host, err := tn.newHost(fmt.Sprintf("auth%d", i), sgxDirs)
			if err != nil {
				return nil, err
			}
			auth, err := LaunchAuthority(host, AuthorityConfig{
				Name:        fmt.Sprintf("auth%d", i),
				SGX:         sgxDirs,
				ORWhitelist: []core.Measurement{orMeasure},
			})
			if err != nil {
				return nil, err
			}
			tn.Auths = append(tn.Auths, auth)
		}
	} else {
		tn.Ring = chord.NewRing()
	}

	// Onion routers.
	sgxORs := cfg.Mode >= ModeSGXORs
	for i := 0; i < cfg.Relays+cfg.Exits; i++ {
		exit := i >= cfg.Relays
		name := fmt.Sprintf("or%d", i)
		if _, err := tn.AddOR(ORConfig{Name: name, Exit: exit, SGX: sgxORs, Behavior: BehaveHonest, Xcall: cfg.Xcall}); err != nil {
			return nil, err
		}
	}
	return tn, nil
}

// Close tears the deployment down: every listener and connection on its
// network closes, so the ORs', authorities' and web server's goroutines
// return. Call it after the last meter read.
func (tn *TorNet) Close() { tn.Net.Close() }

// newHost creates a host; SGX hosts get the architectural signer and a
// quoting-enclave agent.
func (tn *TorNet) newHost(name string, sgx bool) (*netsim.SimHost, error) {
	if !sgx {
		return tn.Net.AddHost(name, core.PlatformConfig{})
	}
	host, _, err := attest.NewSGXHost(tn.Net, name, tn.arch)
	return host, err
}

// AddOR launches an OR, registers it per the deployment mode, and
// returns it. Admission outcome depends on the mode: manual approval in
// the baseline (anything gets in), attestation in SGX modes (tampered
// builds are refused).
func (tn *TorNet) AddOR(cfg ORConfig) (*OR, error) {
	hostName := cfg.Name + "-host"
	host, err := tn.newHost(hostName, cfg.SGX)
	if err != nil {
		return nil, err
	}
	o, err := LaunchOR(host, cfg)
	if err != nil {
		return nil, err
	}
	tn.ORs = append(tn.ORs, o)

	switch tn.Mode {
	case ModeBaseline, ModeSGXDirectory:
		// Status-quo admission: volunteer operators are approved
		// manually; nothing verifies what the box actually runs.
		for _, a := range tn.Auths {
			a.AdmitManually(o.Descriptor())
		}
	case ModeSGXORs:
		if cfg.SGX {
			for _, a := range tn.Auths {
				if err := a.AdmitByAttestation(o.Descriptor()); err != nil {
					return o, fmt.Errorf("tor: %s not admitted: %w", cfg.Name, err)
				}
			}
		} else {
			// Incremental phase: legacy non-SGX relays still rely on
			// manual admission.
			for _, a := range tn.Auths {
				a.AdmitManually(o.Descriptor())
			}
		}
	case ModeSGXFull:
		if !cfg.SGX {
			return o, fmt.Errorf("tor: fully SGX-enabled network refuses non-SGX OR %s", cfg.Name)
		}
		node, err := tn.Ring.Join(cfg.Name)
		if err != nil {
			return o, err
		}
		desc, err := wire.Encode(o.Descriptor())
		if err != nil {
			return o, err
		}
		if _, err := node.Put("or:"+cfg.Name, desc); err != nil {
			return o, err
		}
	}
	return o, nil
}

// FlushXcall drains every OR's rings at a phase boundary (no-op for
// synchronous deployments).
func (tn *TorNet) FlushXcall() {
	for _, o := range tn.ORs {
		o.FlushXcall()
	}
}

// XcallStats sums ring tallies across all ORs (zero when synchronous).
func (tn *TorNet) XcallStats() xcall.Stats {
	var st xcall.Stats
	for _, o := range tn.ORs {
		st = st.Add(o.XcallStats())
	}
	return st
}

// RelaySGX sums the SGX(U) instruction tally across all OR enclaves —
// the crossing-cost metric the xcall ablation compares.
func (tn *TorNet) RelaySGX() uint64 {
	var sum uint64
	for _, o := range tn.ORs {
		if o.Enclave() != nil {
			sum += o.Enclave().Meter().Snapshot().SGXU
		}
	}
	return sum
}

// AuthorityHosts lists the authority host names (what clients dial).
func (tn *TorNet) AuthorityHosts() []string {
	var out []string
	for _, a := range tn.Auths {
		out = append(out, a.Host.Name())
	}
	return out
}

// NewClient creates a client attached to this network with the
// mode-appropriate whitelist.
func (tn *TorNet) NewClient(name string, seed int64) (*Client, error) {
	host, err := tn.newHost(name, false)
	if err != nil {
		return nil, err
	}
	sgx := tn.Mode != ModeBaseline
	return NewClient(host, ClientConfig{
		Name: name,
		SGX:  sgx,
		Whitelist: []core.Measurement{
			AuthorityMeasurement(),
			HonestORMeasurement(),
		},
		Seed: seed,
	})
}

// Discover returns the OR membership a client would learn: the voted
// consensus in directory modes, or a DHT walk plus per-OR attestation in
// the fully SGX-enabled mode ("verification is done by hardware").
func (tn *TorNet) Discover(c *Client) ([]Descriptor, error) {
	if tn.Mode != ModeSGXFull {
		return c.FetchConsensus(tn.AuthorityHosts())
	}
	// Walk the ring: collect every live node by following successors
	// from a random lookup, fetch descriptors, attest each OR.
	if tn.Ring.Size() == 0 {
		return nil, fmt.Errorf("tor: empty DHT")
	}
	var any *chord.Node
	for _, o := range tn.ORs {
		if o.SGX {
			if n, _, err := findNode(tn.Ring, o.Name); err == nil {
				any = n
				break
			}
		}
	}
	if any == nil {
		return nil, fmt.Errorf("tor: no live DHT node")
	}
	var out []Descriptor
	start := any
	node := any
	for {
		raw, _, err := node.Get("or:" + node.Name())
		if err == nil {
			var d Descriptor
			if wire.Decode(raw, &d) == nil {
				if err := c.AttestOR(d); err == nil {
					out = append(out, d)
				}
			}
		}
		node = node.Successor()
		if node == nil || node == start {
			break
		}
	}
	return out, nil
}

func findNode(r *chord.Ring, name string) (*chord.Node, int, error) {
	// Any node can be found by looking up its own hash from any other
	// node; bootstrap via a throwaway join is unnecessary since we hold
	// the ring handle — walk from a successor lookup.
	n := r.SuccessorOf(chord.HashKey(name))
	if n == nil || n.Name() != name {
		return nil, 0, fmt.Errorf("tor: %s not in DHT", name)
	}
	return n, 0, nil
}
