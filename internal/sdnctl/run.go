package sdnctl

import (
	"fmt"

	"sgxnet/internal/attest"
	"sgxnet/internal/bgp"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/ratls"
	"sgxnet/internal/topo"
	"sgxnet/internal/xcall"
)

// End-to-end deployment drivers for the evaluation: RunSGX and RunNative
// execute the identical workload (policy upload → compute → route
// push-back) and report per-controller instruction tallies for the
// steady state, with launch and attestation excluded exactly as the
// paper's Table 4 does.

// RunReport is the outcome of one deployment run.
type RunReport struct {
	N int
	// InterDomain is the inter-domain controller's steady-state tally.
	InterDomain core.Tally
	// ASLocal holds each AS-local controller's steady-state tally.
	ASLocal []core.Tally
	// Attestations is the number of remote attestations performed
	// (Table 3: equals the number of AS controllers in the SGX run).
	Attestations int
	// Stats is the route computation's work profile.
	Stats bgp.Stats
	// RIBs is the computed routing state (evaluation hook).
	RIBs map[int]bgp.RIB
	// Installed maps ASN → routes the AS-local controller installed.
	Installed map[int][]bgp.Route

	// Retries and Reattests total the attestation retries and channel
	// re-establishments across all AS-local controllers (zero for clean
	// runs). FaultStats snapshots the schedule's interventions.
	Retries    int
	Reattests  int
	FaultStats netsim.FaultStats

	// QuoteServing is the controller-host quoting enclave's tally over
	// the attestation phase — quote serving only, launch excluded. It is
	// the crossing-cost metric the xcall ablation compares: every quote
	// costs 17 SGX(U) synchronously (Table 1), fewer when the serve
	// ECALLs and message OCALLs ride rings (SGXConfig.Xcall).
	QuoteServing core.Tally
	// QuoteXcall is the quoting agent's ring tally when quote serving
	// runs switchlessly; zero otherwise.
	QuoteXcall xcall.Stats

	// RATLSCold and RATLSWarm split controller-certificate verifications
	// when admission runs over attested channels (SGXConfig.RATLSShards):
	// one cold full verification, warm cache hits for every other AS.
	// Zero when the run does not use RA-TLS.
	RATLSCold, RATLSWarm uint64
}

// ASLocalAvg averages the AS-local tallies.
func (r *RunReport) ASLocalAvg() core.Tally {
	if len(r.ASLocal) == 0 {
		return core.Tally{}
	}
	var sum core.Tally
	for _, t := range r.ASLocal {
		sum = sum.Add(t)
	}
	return core.Tally{SGXU: sum.SGXU / uint64(len(r.ASLocal)), Normal: sum.Normal / uint64(len(r.ASLocal))}
}

// SGXConfig selects the variations of an SGX deployment. The zero
// value is the plain deployment behind Table 4.
type SGXConfig struct {
	// Faults, when set, is installed before the attestation phase, so it
	// disturbs the whole run, and every controller is armed with Retry
	// (zero fields defaulted): attestations retry with backoff, receives
	// time out, and lost channels are re-attested.
	Faults *netsim.FaultSchedule
	Retry  attest.RetryPolicy

	// Trace, when set, records spans on Track: a "setup" span for
	// everything before the steady-state boundary (drained with
	// Meter.SnapshotAndReset so setup and steady tallies partition
	// exactly), then "phase.upload" / "phase.compute" / "phase.fetch"
	// spans over the controller and AS-local meters, and a "run.total"
	// record carrying the tallies the report publishes. The quoting
	// enclave on the controller host gets its own "<Track>/qe" track.
	// The track must be private to this run.
	Trace *obs.Trace
	Track string

	// Xcall, when set, makes the controller host's quoting enclave serve
	// switchlessly: serve ECALLs and the QE's message OCALLs ride xcall
	// rings sized by it, and the message shim charges in batched
	// windows. The report's QuoteServing/QuoteXcall fields carry the
	// amortized crossing tally the -xcall-sweep ablation compares
	// against the synchronous 17-SGX(U)-per-quote baseline.
	Xcall *xcall.Config

	// RATLSShards, when positive, gates every controller↔AS connection
	// by the controller's RA-TLS certificate, verified once cold and
	// amortized across the remaining ASes by a shared cache of that many
	// shards. The report's RATLSCold/RATLSWarm carry the split; under
	// Faults, each re-establishment purges the cached verdict first.
	RATLSShards int
}

// Deployment is a live SGX deployment of the design, built by Deploy:
// the inter-domain controller on an SGX host whose quoting enclave
// serves the attestations, and one AS-local controller per AS on a
// host of its own, each holding an attested channel to the controller.
// Run measures it; until Close, the controllers stay live for predicate
// registration and verification (§3.1) or dynamic reconfiguration.
type Deployment struct {
	Controller *Controller
	Locals     []*ASLocal // indexed by ASN

	cfg          SGXConfig
	net          *netsim.Network
	agent        *attest.Agent // the controller host's quoting agent
	quoteServing core.Tally
	quoteXcall   xcall.Stats
	raStats      ratls.Stats
}

// Deploy launches the SGX-enabled design on the given topology and runs
// its attestation phase: every AS-local controller remote-attests the
// inter-domain controller (with DH) before any policy moves. On error,
// whatever was built is torn down.
func Deploy(t *topo.Topology, cfg SGXConfig) (_ *Deployment, err error) {
	tr, track := cfg.Trace, cfg.Track
	n := t.N()
	d := &Deployment{cfg: cfg, net: netsim.New()}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	ctlHost, agent, err := attest.NewSGXHost(d.net, "controller", arch)
	if err != nil {
		return nil, err
	}
	d.agent = agent
	if tr != nil {
		// The AS-local controllers attest serially, so the controller-host
		// quoting enclave serves one request at a time — safe on one track.
		agent.SetTrace(tr, track+"/qe")
	}
	agent.SetXcall(cfg.Xcall)
	// QuoteServing measures serving only: drain whatever quoting-enclave
	// launch charged before any requester connects.
	agent.QE.Meter().SnapshotAndReset()
	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	launch, ctlMR := LaunchController, ControllerMeasurement(n)
	if cfg.RATLSShards > 0 {
		launch, ctlMR = LaunchControllerRATLS, ControllerMeasurementRATLS(n)
	}
	ctl, err := launch(ctlHost, signer, n)
	if err != nil {
		return nil, err
	}
	d.Controller = ctl

	// RATLS deployments mint the controller's certificate at launch and
	// share one verification cache across every AS — the per-connection
	// amortization the report's RATLSCold/RATLSWarm split shows.
	var raCert []byte
	var raVerifier *ratls.Verifier
	if cfg.RATLSShards > 0 {
		mt, err := ratls.NewMinter(ctlHost.Platform(), arch)
		if err != nil {
			return nil, err
		}
		_, raCert, err = mt.Mint(ctl.Enclave)
		if err != nil {
			return nil, err
		}
		raVerifier = ratls.NewVerifier(attest.Policy{
			AllowedEnclaves: []core.Measurement{ctlMR},
			RejectDebug:     true,
		}, cfg.RATLSShards)
	}
	policies := PoliciesFromTopology(t)
	for a := 0; a < n; a++ {
		host, err := d.net.AddHost(fmt.Sprintf("as%d", a), core.PlatformConfig{})
		if err != nil {
			return nil, err
		}
		asl, err := LaunchASLocal(host, signer, policies[a], ctlMR)
		if err != nil {
			return nil, err
		}
		d.Locals = append(d.Locals, asl)
	}

	// Arm the deployment and install the disturbance plan before any
	// protocol traffic, so the whole run — attestation included — is
	// exposed to it.
	if cfg.Faults != nil {
		pol := cfg.Retry.WithDefaults()
		ctl.SetRecvTimeout(pol.RecvTimeout)
		for _, asl := range d.Locals {
			asl.SetRetryPolicy(pol)
		}
		d.net.SetFaults(cfg.Faults)
	}

	// Attestation phase (one remote attestation per AS controller). In
	// the RATLS deployment each connection is gated by certificate
	// admission first — cold for the first AS, warm for the rest — and
	// every AS's re-establishment hook purges the certificate's cached
	// verdict, so a lost channel forces a full re-verification.
	for _, asl := range d.Locals {
		if raVerifier != nil {
			if _, err := raVerifier.Admit(asl.Enclave.Meter(), raCert, "controller"); err != nil {
				return nil, fmt.Errorf("sdnctl: AS%d refused controller certificate: %w", asl.ASN, err)
			}
			asl.SetInvalidator(certInvalidator{v: raVerifier, digest: ratls.Digest(raCert)})
		}
		if err := asl.Connect("controller"); err != nil {
			return nil, err
		}
		tr.Event(track, "attest.established", map[string]string{"as": fmt.Sprint(asl.ASN)})
	}
	if raVerifier != nil {
		d.raStats = raVerifier.Stats()
	}
	// The attestation phase is the quoting enclave's whole workload:
	// drain its rings at the boundary and capture its serving tally.
	agent.FlushXcall()
	d.quoteServing = agent.QE.Meter().Snapshot()
	d.quoteXcall = agent.XcallStats()
	return d, nil
}

// Run measures the deployment's steady state — policy upload → route
// computation → route push-back — and reports per-controller tallies
// with launch and attestation excluded, as Table 4 does. Call it once.
func (d *Deployment) Run() (*RunReport, error) {
	meters := make([]*core.Meter, 0, len(d.Locals)+1)
	meters = append(meters, d.Controller.Enclave.Meter())
	for _, asl := range d.Locals {
		meters = append(meters, asl.Enclave.Meter())
	}
	rep, err := runPhases(d.cfg.Trace, d.cfg.Track, meters, d.Controller, d.Locals)
	if err != nil {
		return nil, err
	}
	rep.Attestations = len(d.Locals)
	rep.Stats = d.Controller.State.Stats()
	rep.RIBs = d.Controller.State.RIBs()
	rep.QuoteServing = d.quoteServing
	rep.QuoteXcall = d.quoteXcall
	rep.RATLSCold, rep.RATLSWarm = d.raStats.Cold, d.raStats.Warm
	for _, asl := range d.Locals {
		rep.Installed[asl.ASN] = asl.State.Installed()
		rep.Retries += asl.Retries
		rep.Reattests += asl.Reattests
	}
	if d.cfg.Faults != nil {
		rep.FaultStats = d.cfg.Faults.Stats()
	}
	return rep, nil
}

// Close tears the deployment down, its network last. Call it after the
// last meter read.
func (d *Deployment) Close() {
	for _, asl := range d.Locals {
		asl.Close()
	}
	if d.Controller != nil {
		d.Controller.Close()
	}
	d.net.Close()
}

// RunSGX deploys the SGX-enabled design on the given topology, measures
// it and tears it down: Deploy → Run → Close. Callers that need the
// live controllers after the measurement call those three themselves.
func RunSGX(t *topo.Topology, cfg SGXConfig) (*RunReport, error) {
	d, err := Deploy(t, cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Run()
}

// RunNative deploys the baseline on the same workload. A non-nil trace
// gets the same span structure as SGXConfig.Trace (setup drain, three
// phase spans over the reported host meters, run.total record) on
// track, so native and SGX legs compare phase by phase in sgxnet-trace.
// The deployment is torn down before RunNative returns.
func RunNative(t *topo.Topology, tr *obs.Trace, track string) (*RunReport, error) {
	n := t.N()
	net := netsim.New()
	defer net.Close()
	ctlHost, err := net.AddHost("controller", core.PlatformConfig{})
	if err != nil {
		return nil, err
	}
	ctl, err := LaunchNativeController(ctlHost, n)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	policies := PoliciesFromTopology(t)
	locals := make([]*NativeASLocal, n)
	meters := []*core.Meter{ctlHost.Platform().HostMeter}
	for a := 0; a < n; a++ {
		host, err := net.AddHost(fmt.Sprintf("as%d", a), core.PlatformConfig{})
		if err != nil {
			return nil, err
		}
		locals[a] = NewNativeASLocal(host, policies[a])
		defer locals[a].Close()
		meters = append(meters, host.Platform().HostMeter)
	}
	for _, asl := range locals {
		if err := asl.Connect("controller"); err != nil {
			return nil, err
		}
	}

	rep, err := runPhases(tr, track, meters, ctl, locals)
	if err != nil {
		return nil, err
	}
	rep.Stats = ctl.State.Stats()
	rep.RIBs = ctl.State.RIBs()
	for _, asl := range locals {
		rep.Installed[asl.ASN] = asl.Installed()
	}
	return rep, nil
}

// phaseAS is what runPhases needs of an AS-local controller,
// enclave-hosted or native.
type phaseAS interface {
	Upload() error
	Fetch() error
}

// runPhases runs the steady state of both deployments, so their legs
// cannot drift apart. meters holds the controller's meter, then
// each AS's in locals' order. It drains them into the "setup" span —
// SnapshotAndReset guarantees setup and steady tallies partition the
// meters' lifetime consumption exactly, which is what lets the trace
// attribute the whole run — then runs upload → compute → fetch under one
// span each over every meter, so the three deltas sum exactly to the
// tallies the report publishes, and records the "run.total" the analyzer
// attributes the spans against: everything the meters consumed, setup
// included. The report carries N, the tallies and an empty Installed.
func runPhases[A phaseAS](tr *obs.Trace, track string, meters []*core.Meter, ctl interface{ Compute() error }, locals []A) (*RunReport, error) {
	var setup core.Tally
	for _, m := range meters {
		setup = setup.Add(m.SnapshotAndReset())
	}
	tr.RecordSpan(track, "setup", setup)

	sp := tr.Begin(track, "phase.upload", meters...)
	for _, asl := range locals {
		if err := asl.Upload(); err != nil {
			return nil, err
		}
	}
	sp.End()
	sp = tr.Begin(track, "phase.compute", meters...)
	if err := ctl.Compute(); err != nil {
		return nil, err
	}
	sp.End()
	sp = tr.Begin(track, "phase.fetch", meters...)
	for _, asl := range locals {
		if err := asl.Fetch(); err != nil {
			return nil, err
		}
	}
	sp.End()
	// An enclave-hosted controller replies from inside its calls: let
	// their closing charges land before the tallies are read (the span
	// settles only when tracing).
	for _, m := range meters {
		m.Settle()
	}

	rep := &RunReport{
		N:           len(locals),
		InterDomain: meters[0].Snapshot(),
		Installed:   make(map[int][]bgp.Route, len(locals)),
	}
	total := setup.Add(rep.InterDomain)
	for _, m := range meters[1:] {
		t := m.Snapshot()
		rep.ASLocal = append(rep.ASLocal, t)
		total = total.Add(t)
	}
	tr.Total(track, "run.total", total)
	return rep, nil
}
