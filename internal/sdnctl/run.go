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

// SGXConfig selects the variations of an SGX deployment run. The zero
// value is the plain run behind Table 4.
type SGXConfig struct {
	// Faults, when set, is installed before the attestation phase, so it
	// disturbs the whole run, and every controller is armed with Retry:
	// attestations retry with backoff, receives time out, and lost
	// channels are re-attested.
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

	// After, when set, receives the live controller and AS-local
	// controllers once routes are installed and the Table 4 measurement
	// window has closed — for predicate registration/verification
	// (§3.1) or dynamic reconfiguration.
	After func(ctl *Controller, locals []*ASLocal) error
}

// RunSGX deploys the SGX-enabled design on the given topology: one
// controller host plus one host per AS, all SGX platforms with quoting
// enclaves; every AS-local controller remote-attests the inter-domain
// controller (with DH) before uploading its policy.
func RunSGX(t *topo.Topology, cfg SGXConfig) (*RunReport, error) {
	tr, track := cfg.Trace, cfg.Track
	n := t.N()
	net := netsim.New()
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	newHost := func(name string) (*netsim.SimHost, error) {
		plat, err := core.NewPlatform(name, core.PlatformConfig{EPCFrames: 4096, ArchSigner: arch.MRSigner()})
		if err != nil {
			return nil, err
		}
		return net.AddHostWithPlatform(name, plat)
	}
	ctlHost, err := newHost("controller")
	if err != nil {
		return nil, err
	}
	agent, err := attest.NewAgent(ctlHost, arch)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The AS-local controllers attest serially, so the controller-host
		// quoting enclave serves one request at a time — safe on one track.
		agent.SetTrace(tr, track+"/qe")
	}
	if cfg.Xcall != nil {
		agent.SetXcall(*cfg.Xcall)
	}
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
	defer ctl.Close()

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
	locals := make([]*ASLocal, n)
	for a := 0; a < n; a++ {
		host, err := newHost(fmt.Sprintf("as%d", a))
		if err != nil {
			return nil, err
		}
		asl, err := LaunchASLocal(host, signer, policies[a], ctlMR)
		if err != nil {
			return nil, err
		}
		locals[a] = asl
		defer asl.Close()
	}

	// Arm the deployment and install the disturbance plan before any
	// protocol traffic, so the whole run — attestation included — is
	// exposed to it.
	if cfg.Faults != nil {
		ctl.SetRecvTimeout(cfg.Retry.RecvTimeout)
		for _, asl := range locals {
			asl.SetRetryPolicy(cfg.Retry)
		}
		net.SetFaults(cfg.Faults)
	}

	// Attestation phase (one remote attestation per AS controller). In
	// the RATLS deployment each connection is gated by certificate
	// admission first — cold for the first AS, warm for the rest — and
	// every AS's re-establishment hook purges the certificate's cached
	// verdict, so a lost channel forces a full re-verification.
	attestations := 0
	for _, asl := range locals {
		if raVerifier != nil {
			if _, err := raVerifier.Admit(asl.Enclave.Meter(), raCert, "controller"); err != nil {
				return nil, fmt.Errorf("sdnctl: AS%d refused controller certificate: %w", asl.ASN, err)
			}
			asl.SetInvalidator(certInvalidator{v: raVerifier, digest: ratls.Digest(raCert)})
		}
		if err := asl.Connect("controller"); err != nil {
			return nil, err
		}
		attestations++
		tr.Event(track, "attest.established", map[string]string{"as": fmt.Sprint(asl.ASN)})
	}
	var raStats ratls.Stats
	if raVerifier != nil {
		raStats = raVerifier.Stats()
	}
	// The attestation phase is the quoting enclave's whole workload:
	// drain its rings at the boundary and capture its serving tally.
	if err := agent.FlushXcall(); err != nil {
		return nil, err
	}
	quoteServing := agent.QE.Meter().Snapshot()
	quoteXcall := agent.XcallStats()

	// Steady state begins here: drain every meter so launch/attestation
	// costs are excluded, as in Table 4. SnapshotAndReset guarantees
	// setup and steady tallies partition the meters' lifetime
	// consumption exactly, which is what lets the trace
	// attribute the whole run; the drained tallies become the "setup"
	// span.
	var setup core.Tally
	setup = setup.Add(ctl.Enclave.Meter().SnapshotAndReset())
	for _, asl := range locals {
		setup = setup.Add(asl.Enclave.Meter().SnapshotAndReset())
	}
	tr.RecordSpan(track, "setup", setup)

	// The steady-state phase spans watch every reported meter, so their
	// three deltas sum exactly to the tallies the report publishes.
	meters := make([]*core.Meter, 0, n+1)
	meters = append(meters, ctl.Enclave.Meter())
	for _, asl := range locals {
		meters = append(meters, asl.Enclave.Meter())
	}

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
	// The controller replies from inside its calls: let their closing
	// charges land before the tallies are read (the span settles only
	// when tracing).
	for _, m := range meters {
		m.Settle()
	}

	rep := &RunReport{
		N:            n,
		InterDomain:  ctl.Enclave.Meter().Snapshot(),
		Attestations: attestations,
		Stats:        ctl.State.Stats(),
		RIBs:         ctl.State.RIBs(),
		Installed:    make(map[int][]bgp.Route, n),
		QuoteServing: quoteServing,
		QuoteXcall:   quoteXcall,
		RATLSCold:    raStats.Cold,
		RATLSWarm:    raStats.Warm,
	}
	for _, asl := range locals {
		rep.ASLocal = append(rep.ASLocal, asl.Enclave.Meter().Snapshot())
		rep.Installed[asl.ASN] = asl.State.Installed()
		rep.Retries += asl.Retries
		rep.Reattests += asl.Reattests
	}
	if tr != nil {
		// The independently-reported total the analyzer attributes spans
		// against: everything the published meters consumed, setup
		// included.
		total := setup.Add(rep.InterDomain)
		for _, t := range rep.ASLocal {
			total = total.Add(t)
		}
		tr.Total(track, "run.total", total)
	}
	if cfg.Faults != nil {
		rep.FaultStats = cfg.Faults.Stats()
	}
	if cfg.After != nil {
		if err := cfg.After(ctl, locals); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// RunNative deploys the baseline on the same workload. A non-nil trace
// gets the same span structure as SGXConfig.Trace (setup drain, three
// phase spans over the reported host meters, run.total record) on
// track, so native and SGX legs compare phase by phase in sgxnet-trace.
func RunNative(t *topo.Topology, tr *obs.Trace, track string) (*RunReport, error) {
	n := t.N()
	net := netsim.New()
	ctlHost, err := net.AddHost("controller", core.PlatformConfig{EPCFrames: 64})
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
	for a := 0; a < n; a++ {
		host, err := net.AddHost(fmt.Sprintf("as%d", a), core.PlatformConfig{EPCFrames: 64})
		if err != nil {
			return nil, err
		}
		locals[a] = NewNativeASLocal(host, policies[a])
		defer locals[a].Close()
	}
	for _, asl := range locals {
		if err := asl.Connect("controller"); err != nil {
			return nil, err
		}
	}

	var setup core.Tally
	setup = setup.Add(ctlHost.Platform().HostMeter.SnapshotAndReset())
	for _, asl := range locals {
		setup = setup.Add(asl.Host.Platform().HostMeter.SnapshotAndReset())
	}
	tr.RecordSpan(track, "setup", setup)

	meters := make([]*core.Meter, 0, n+1)
	meters = append(meters, ctlHost.Platform().HostMeter)
	for _, asl := range locals {
		meters = append(meters, asl.Host.Platform().HostMeter)
	}

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

	rep := &RunReport{
		N:           n,
		InterDomain: ctlHost.Platform().HostMeter.Snapshot(),
		Stats:       ctl.State.Stats(),
		RIBs:        ctl.State.RIBs(),
		Installed:   make(map[int][]bgp.Route, n),
	}
	for _, asl := range locals {
		rep.ASLocal = append(rep.ASLocal, asl.Host.Platform().HostMeter.Snapshot())
		rep.Installed[asl.ASN] = asl.Installed()
	}
	if tr != nil {
		total := setup.Add(rep.InterDomain)
		for _, t := range rep.ASLocal {
			total = total.Add(t)
		}
		tr.Total(track, "run.total", total)
	}
	return rep, nil
}
