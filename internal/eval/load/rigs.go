package load

import (
	"fmt"

	"sgxnet/internal/core"
	"sgxnet/internal/sdnctl"
	"sgxnet/internal/tlslite"
	"sgxnet/internal/topo"
	"sgxnet/internal/tor"
	"sgxnet/internal/xcall"
)

// Rigs: the application servers the load engine drives. Each rig wraps
// one of the repo's real deployments — the same protocol code the
// tables measure, not a cost stub — and prices each request by draining
// the deployment's meters with SnapshotAndReset, so request i's service
// tally is exactly the metered work its protocol exchange consumed
// (including any EPC faults or amortized ring drains it triggered).
// Serve is invoked serially by the engine; rigs need no locking.

// Rig is a Server with a lifecycle.
type Rig interface {
	Server
	Close()
}

// --- Tor ---

// TorRig drives circuit GETs through a 3-hop circuit of SGX onion
// routers (1 authority, 2 relays, 1 exit — the smallest full path). The
// per-request tally covers the client's crypto plus all relay-side
// enclave work; with a non-nil xcall config the relays' crossing
// accounting lands on whichever request triggers a ring drain, which is
// exactly the tail-latency artifact the sweep exists to expose.
type TorRig struct {
	tn     *tor.TorNet
	circ   *tor.Circuit
	meters []*core.Meter
}

// NewTorRig deploys the network and builds one circuit. Setup costs
// (consensus, handshakes, attestation) are drained before first Serve.
func NewTorRig(seed int64, xc *xcall.Config) (_ *TorRig, err error) {
	tn, err := tor.Deploy(tor.NetworkConfig{
		Mode: tor.ModeSGXORs, Authorities: 1, Relays: 2, Exits: 1, Seed: seed, Xcall: xc,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			tn.Close()
		}
	}()
	c, err := tn.NewClient("load-client", 11)
	if err != nil {
		return nil, err
	}
	consensus, err := tn.Discover(c)
	if err != nil {
		return nil, err
	}
	path, err := c.PickPath(consensus, 3)
	if err != nil {
		return nil, err
	}
	circ, err := c.BuildCircuit(path)
	if err != nil {
		return nil, err
	}
	r := &TorRig{tn: tn, circ: circ, meters: []*core.Meter{c.Meter()}}
	for _, o := range tn.ORs {
		r.meters = append(r.meters, o.Enclave().Meter())
	}
	for _, m := range r.meters {
		m.SnapshotAndReset()
	}
	return r, nil
}

// Serve performs one end-to-end circuit GET and verifies the reply.
func (r *TorRig) Serve(i int) (core.Tally, error) {
	var t core.Tally
	req := fmt.Sprintf("req-%d", i)
	resp, err := r.circ.Get(tor.WebHost+"|"+tor.WebService, []byte(req))
	if err != nil {
		return t, err
	}
	if string(resp) != "content:"+req {
		return t, fmt.Errorf("load: tor reply %d: %q", i, resp)
	}
	for _, m := range r.meters {
		t = t.Add(m.SnapshotAndReset())
	}
	return t, nil
}

// Close drains any residual ring accounting and tears the circuit and
// the deployment down.
func (r *TorRig) Close() {
	_ = r.tn.FlushXcall()
	r.circ.Close()
	r.tn.Close()
}

// --- TLS ---

// TLSRigConfig shapes the record-engine rig's composition axes.
type TLSRigConfig struct {
	// Xcall, when non-nil, routes the engine's crossings through rings.
	Xcall *xcall.Config
	// EPCRatio > 0 puts the engine on a deliberately small EPC behind a
	// clock-policy pager; each request touches record-buffer pages from
	// a working set of ratio × pageable-budget pages, so ratios > 1.0
	// force steady-state EWB/ELDU traffic onto the request path.
	EPCRatio float64
	// Antagonist additionally launches an EPC antagonist enclave on the
	// same platform (requires EPCRatio > 0); fetch it with Antagonist.
	Antagonist bool
}

// tlsEPCFrames is the paged rig's whole EPC: small enough that realistic
// working-set ratios page, large enough to launch two enclaves.
const tlsEPCFrames = 48

// tlsPagesPerRequest is how many working-set pages one record exchange
// touches (record buffer in, record buffer out, key schedule, scratch).
const tlsPagesPerRequest = 4

// TLSRig drives seal+open record exchanges through an enclave-hosted
// TLS record codec, optionally behind a paged EPC.
type TLSRig struct {
	eng    *tlslite.RecordEngine
	pager  *core.Pager // nil when EPCRatio == 0
	ws     int         // working-set pages
	pos    int         // cyclic working-set cursor
	seq    uint64
	antago *epcAntagonist
}

// NewTLSRig builds the engine (and, if configured, the pager and the
// co-located EPC antagonist) on a platform seeded by name.
func NewTLSRig(name string, cfg TLSRigConfig) (*TLSRig, error) {
	pcfg := core.PlatformConfig{Seed: []byte("load-tls/" + name)}
	if cfg.EPCRatio > 0 {
		pcfg.EPCFrames = tlsEPCFrames
	}
	plat, err := core.NewPlatform("load-tls", pcfg)
	if err != nil {
		return nil, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	var keys tlslite.Keys
	for i := range keys.EncC2S {
		keys.EncC2S[i] = byte(i)
		keys.EncS2C[i] = byte(i + 16)
	}
	for i := range keys.MacC2S {
		keys.MacC2S[i] = byte(i + 32)
		keys.MacS2C[i] = byte(i + 64)
	}
	eng, err := tlslite.NewRecordEngine(plat, signer, keys, cfg.Xcall)
	if err != nil {
		return nil, err
	}
	r := &TLSRig{eng: eng}
	if cfg.EPCRatio > 0 {
		var anEnc *core.Enclave
		if cfg.Antagonist {
			// Launch before sizing the budget so both tenants' enclave
			// infrastructure is already paid for.
			if anEnc, err = plat.Launch(antagonistProgram("epc"), signer); err != nil {
				return nil, err
			}
		}
		budget := plat.EPC().FreeCount()
		r.pager = core.NewPager(plat.EPC(), core.NewClockPolicy())
		r.ws = int(cfg.EPCRatio * float64(budget))
		if r.ws < 1 {
			r.ws = 1
		}
		if anEnc != nil {
			r.antago = &epcAntagonist{enc: anEnc, pager: r.pager, span: budget}
			anEnc.Meter().SnapshotAndReset()
		}
	}
	eng.Meter().SnapshotAndReset()
	return r, nil
}

// Antagonist returns the co-located EPC antagonist rig (nil unless
// configured). It shares the victim's pager, so its page touches evict
// the victim's working set.
func (r *TLSRig) Antagonist() Rig { return rigOrNil(r.antago) }

// SetSeries wires the rig's pager (when paged) into a windowed-metrics
// probe stamping from the given virtual clock — typically the load
// engine's shared series.Clock, so fault/evict samples land in the
// window of the request that triggered them. No-op for an unpaged rig;
// call before the first Serve.
func (r *TLSRig) SetSeries(sp core.SampleProbe, clock func() uint64) {
	if r.pager != nil {
		r.pager.SetSeries(sp, clock)
	}
}

// Serve seals and opens one record (touching its working-set pages
// first when paged).
func (r *TLSRig) Serve(i int) (core.Tally, error) {
	var t core.Tally
	if r.pager != nil {
		for k := 0; k < tlsPagesPerRequest; k++ {
			addr := uint64(r.pos%r.ws) * core.PageSize
			r.pos++
			if _, err := r.pager.Touch(r.eng.Meter(), r.eng.Enclave().ID(), addr); err != nil {
				return t, err
			}
		}
	}
	seq := r.seq
	r.seq++
	rec, err := r.eng.Seal(tlslite.ClientToServer, seq, []byte("application data"))
	if err != nil {
		return t, err
	}
	if _, err := r.eng.Open(tlslite.ClientToServer, seq, rec); err != nil {
		return t, err
	}
	return r.eng.Meter().SnapshotAndReset(), nil
}

// Close is a no-op (the platform is garbage).
func (r *TLSRig) Close() {}

// --- SDN ---

// sdnASes is the SDN rig's deployment size.
const sdnASes = 6

// SDNRig drives route fetches against a live SGX SDN deployment: one
// enclave-hosted controller, sdnASes attested AS-local controllers with
// uploaded policies and computed routes. Serve(i) is AS (i mod n)
// re-fetching its routes — the steady-state "data plane asks the
// control plane" exchange.
type SDNRig struct {
	d      *sdnctl.Deployment
	meters []*core.Meter
}

// NewSDNRig deploys and attests (sdnctl.Deploy), uploads, and computes,
// then drains every meter so Serve tallies are pure steady-state fetch
// work.
func NewSDNRig() (_ *SDNRig, err error) {
	tp, err := topo.Random(topo.Config{N: sdnASes, Seed: 42, PrefJitter: true})
	if err != nil {
		return nil, err
	}
	d, err := sdnctl.Deploy(tp, sdnctl.SGXConfig{})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	for _, asl := range d.Locals {
		if err := asl.Upload(); err != nil {
			return nil, err
		}
	}
	if err := d.Controller.Compute(); err != nil {
		return nil, err
	}
	r := &SDNRig{d: d, meters: []*core.Meter{d.Controller.Enclave.Meter()}}
	for _, asl := range d.Locals {
		r.meters = append(r.meters, asl.Enclave.Meter())
	}
	for _, m := range r.meters {
		m.SnapshotAndReset()
	}
	return r, nil
}

// Serve has AS (i mod n) fetch its computed routes from the controller.
func (r *SDNRig) Serve(i int) (core.Tally, error) {
	var t core.Tally
	if err := r.d.Locals[i%len(r.d.Locals)].Fetch(); err != nil {
		return t, err
	}
	for _, m := range r.meters {
		t = t.Add(m.SnapshotAndReset())
	}
	return t, nil
}

// Close tears the deployment down.
func (r *SDNRig) Close() { r.d.Close() }

// --- Antagonists ---

// Antagonist tenants, after Stress-SGX: co-scheduled workloads that
// stress one resource dimension each, so a sweep can attribute a
// victim's tail inflation to the specific contended resource. They run
// as a second stream through the same FIFO engine, so their service
// time delays the victim's queue exactly as a co-tenant on the modeled
// serial platform would.

// Per-op weights for the synthetic antagonists, tuned to the same order
// of magnitude as one victim request so a 25%-utilization antagonist
// stream visibly reshapes the victim's tail without starving it.
const (
	cpuAntagonistCompute = 400_000 // normal instructions per op
	crossAntagonistCalls = 16      // sync enclave crossings per op
	epcAntagonistPages   = 8       // shared-pager page touches per op
)

// antagonistProgram is the antagonists' enclave: a compute op and a
// no-op entry point (the crossing antagonist's empty call).
func antagonistProgram(kind string) *core.Program {
	return &core.Program{
		Name:    "load-antagonist-" + kind,
		Version: "1",
		Handlers: map[string]core.Handler{
			"op": func(env *core.Env, arg []byte) ([]byte, error) {
				env.ChargeNormal(cpuAntagonistCompute)
				return nil, nil
			},
			"noop": func(env *core.Env, arg []byte) ([]byte, error) {
				return nil, nil
			},
		},
	}
}

// enclaveAntagonist is a CPU- or crossing-pressure tenant on its own
// platform.
type enclaveAntagonist struct {
	enc   *core.Enclave
	calls int    // enclave calls per op
	entry string // handler name
}

// NewCPUAntagonist burns enclave compute: one call charging
// cpuAntagonistCompute normal instructions per op.
func NewCPUAntagonist(name string) (Rig, error) {
	return newEnclaveAntagonist(name, "cpu", 1, "op")
}

// NewCrossingAntagonist burns enclave transitions: crossAntagonistCalls
// empty synchronous calls per op, each paying the full EENTER/EEXIT
// toll.
func NewCrossingAntagonist(name string) (Rig, error) {
	return newEnclaveAntagonist(name, "crossing", crossAntagonistCalls, "noop")
}

func newEnclaveAntagonist(name, kind string, calls int, entry string) (Rig, error) {
	plat, err := core.NewPlatform("load-antagonist", core.PlatformConfig{Seed: []byte("load-antagonist/" + name)})
	if err != nil {
		return nil, err
	}
	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	enc, err := plat.Launch(antagonistProgram(kind), signer)
	if err != nil {
		return nil, err
	}
	enc.Meter().SnapshotAndReset()
	return &enclaveAntagonist{enc: enc, calls: calls, entry: entry}, nil
}

func (a *enclaveAntagonist) Serve(i int) (core.Tally, error) {
	var t core.Tally
	for k := 0; k < a.calls; k++ {
		if _, err := a.enc.Call(a.entry, nil); err != nil {
			return t, err
		}
	}
	return a.enc.Meter().SnapshotAndReset(), nil
}

func (a *enclaveAntagonist) Close() {}

// epcAntagonist scans the victim platform's whole pageable budget
// through the shared pager, evicting the victim's pages as it goes.
type epcAntagonist struct {
	enc   *core.Enclave
	pager *core.Pager
	span  int // pages scanned cyclically: the whole pageable budget
	pos   int
}

func (a *epcAntagonist) Serve(i int) (core.Tally, error) {
	var t core.Tally
	for k := 0; k < epcAntagonistPages; k++ {
		addr := uint64(a.pos%a.span) * core.PageSize
		a.pos++
		if _, err := a.pager.Touch(a.enc.Meter(), a.enc.ID(), addr); err != nil {
			return t, err
		}
	}
	if _, err := a.enc.Call("noop", nil); err != nil {
		return t, err
	}
	return a.enc.Meter().SnapshotAndReset(), nil
}

func (a *epcAntagonist) Close() {}

// rigOrNil converts a typed-nil antagonist to an untyped nil Rig.
func rigOrNil(a *epcAntagonist) Rig {
	if a == nil {
		return nil
	}
	return a
}
