package attest

import (
	"fmt"
	"sync"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/sgxcrypto"
	"sgxnet/internal/wire"
	"sgxnet/internal/xcall"
)

// QuoteService is the netsim service name the quoting enclave's untrusted
// runtime listens on. Attestation targets dial it on their own host.
const QuoteService = "sgx.quote"

// quotingVersion participates in the quoting enclave's measurement.
const quotingVersion = "1.0"

// msgQuoteResp carries message 3 of Figure 1: the QUOTE plus the quoting
// enclave's own REPORT targeted at the requesting enclave (the mutual
// direction of intra-attestation, §2.2).
type msgQuoteResp struct {
	Quote   Quote
	ReportQ []byte
}

// quotingProgram builds the quoting enclave program. The handler executes
// the per-request ENCLU trace of Table 1's "Quoting" column: one EENTER,
// six message OCALLs (hello/hello-ack framing, REPORT in, QUOTE out,
// done/bye teardown), EGETKEY to verify the inbound REPORT, EGETKEY to
// unseal the platform attestation key blob, EREPORT for the mutual
// report, and the closing EEXIT — 17 SGX(U) instructions.
func quotingProgram() *core.Program {
	return &core.Program{
		Name:    "sgx-quoting-enclave",
		Version: quotingVersion,
		Handlers: map[string]core.Handler{
			// serve handles one quote request on an adopted connection.
			// arg: 4-byte connID.
			"serve": func(env *core.Env, arg []byte) ([]byte, error) {
				start := env.Meter().Snapshot()
				if _, err := env.OCall("msg.recv", arg); err != nil { // hello
					return nil, err
				}
				if _, err := env.OCall("msg.send", netsim.EncodeSend(connID(arg), []byte("qe-hello"))); err != nil {
					return nil, err
				}
				raw, err := env.OCall("msg.recv", arg) // REPORT_T
				if err != nil {
					return nil, err
				}
				rep, ok := core.UnmarshalReport(raw)
				if !ok {
					return nil, fmt.Errorf("attest: quoting: malformed report")
				}
				if !env.VerifyReport(rep) { // EGETKEY + MAC check
					// Intra-attestation failed: the reporter is not a
					// genuine enclave on this platform.
					return nil, fmt.Errorf("attest: quoting: report verification failed")
				}
				// Unseal the attestation key blob (EGETKEY), then obtain
				// the key — hardware refuses non-architectural callers.
				if _, err := env.GetKey(core.KeySealEnclave); err != nil {
					return nil, err
				}
				priv, err := env.AttestationKey()
				if err != nil {
					return nil, err
				}
				q := Quote{
					Identity: Identity{
						MREnclave: rep.MREnclave,
						MRSigner:  rep.MRSigner,
						Debug:     rep.Attributes.Debug,
					},
					Data:        rep.Data,
					PlatformPub: env.Enclave().Platform().AttestationPublicKey(),
				}
				q.Sig = sgxcrypto.Sign(env.Meter(), priv, q.SignedBody())
				// Mutual intra-attestation: report back at the requester.
				repQ := env.EReport(core.TargetInfo{Measurement: rep.MREnclave}, rep.Data)
				resp, err := wire.Encode(msgQuoteResp{Quote: q, ReportQ: repQ.Marshal()})
				if err != nil {
					return nil, err
				}
				if _, err := env.OCall("msg.send", netsim.EncodeSend(connID(arg), resp)); err != nil {
					return nil, err
				}
				if _, err := env.OCall("msg.recv", arg); err != nil { // done
					return nil, err
				}
				if _, err := env.OCall("msg.send", netsim.EncodeSend(connID(arg), []byte("qe-bye"))); err != nil {
					return nil, err
				}
				topUp(env.Meter(), start, core.CostAttestQuotingBase)
				return nil, nil
			},
		},
	}
}

func connID(arg []byte) uint32 {
	return uint32(arg[0]) | uint32(arg[1])<<8 | uint32(arg[2])<<16 | uint32(arg[3])<<24
}

// topUp charges the residual protocol-skeleton instructions so the role's
// normal-instruction total since start matches the calibrated base (plus
// whatever metered crypto already charged beyond it — DH costs land on
// top of the base, exactly as in Table 1).
func topUp(m *core.Meter, start core.Tally, base uint64) {
	spent := m.Snapshot().Sub(start).Normal
	if spent < base {
		m.ChargeNormal(base - spent)
	}
}

// Agent is a host's attestation runtime: the launched quoting enclave and
// the untrusted service loop that feeds it quote requests.
type Agent struct {
	Host *netsim.SimHost
	QE   *core.Enclave
	// Shim is the quoting enclave's message shim. It holds a quote
	// connection only while that connection's serve runs.
	Shim *netsim.IOShim

	xb *xcall.Boundary // the quoting enclave's boundary (SetXcall)
	l  *netsim.Listener

	trMu    sync.Mutex
	trace   *obs.Trace
	trTrack string
}

// SetXcall sets the quoting enclave's boundary (xcall.Attach): with a
// non-nil cfg, serve ECALLs and the QE's message OCALLs ride xcall
// rings sized by cfg and the message shim's sends use windowed batched
// accounting; nil, NewAgent's choice, keeps them synchronous. Call it
// right after NewAgent, before any requester connects — the boundary
// is installed without synchronization against in-flight serves.
func (a *Agent) SetXcall(cfg *xcall.Config) {
	a.xb = xcall.Attach(a.QE, cfg)
	a.QE.BindHost(a.xb.Host(a.Shim))
}

// FlushXcall drains the agent's rings and closes the shim's send
// window at a phase boundary.
func (a *Agent) FlushXcall() { a.xb.Flush() }

// XcallStats sums the agent's ring tallies (zero when synchronous).
func (a *Agent) XcallStats() xcall.Stats { return a.xb.Stats() }

// SetTrace makes the agent record a span per served quote request on
// the given track, carrying the quoting enclave's tally delta. Set it
// before traffic starts and give the agent its own track. Spans are
// derived from meter snapshots around each serve — no lock is held
// while a request is in flight (a quote exchange can block arbitrarily
// long under a fault schedule), so overlapping serves each record a
// span but their deltas may include each other's charges; the traced
// evaluation flows serve one request at a time.
func (a *Agent) SetTrace(tr *obs.Trace, track string) {
	a.trMu.Lock()
	a.trace, a.trTrack = tr, track
	a.trMu.Unlock()
}

// NewAgent launches the quoting enclave on the host (its platform must
// have been created with the architectural signer) and starts serving
// QuoteService.
func NewAgent(host *netsim.SimHost, archSigner *core.Signer) (*Agent, error) {
	qe, err := host.Platform().Launch(quotingProgram(), archSigner)
	if err != nil {
		return nil, fmt.Errorf("attest: launching quoting enclave: %w", err)
	}
	if !qe.Attrs().Architectural {
		qe.Destroy()
		return nil, fmt.Errorf("attest: quoting enclave not architectural — platform ArchSigner mismatch")
	}
	a := &Agent{Host: host, QE: qe, Shim: netsim.NewMsgShim(host, qe.Meter())}
	a.SetXcall(nil)
	if a.l, err = host.Listen(QuoteService); err != nil {
		qe.Destroy()
		return nil, err
	}
	go a.l.Serve(a.serveConn)
	return a, nil
}

// NewSGXHost adds an SGX host to the network — the building block of
// every deployment (§2.2, Figure 1): a platform with the default EPC
// that admits archSigner's architectural launches, and the quoting
// enclave NewAgent launches and serves on it.
func NewSGXHost(net *netsim.Network, name string, archSigner *core.Signer) (*netsim.SimHost, *Agent, error) {
	host, err := net.AddHost(name, core.PlatformConfig{ArchSigner: archSigner.MRSigner()})
	if err != nil {
		return nil, nil, err
	}
	agent, err := NewAgent(host, archSigner)
	if err != nil {
		return nil, nil, err
	}
	return host, agent, nil
}

// serving maps a quote connection's netsim.Conn.Key to a channel that
// closes once the serve on it has returned. The quoting enclave sends
// qe-bye before its closing top-up charge, its EEXIT and the agent's
// span, so a requester that returned on qe-bye alone could leave those
// charges to land after its caller snapshots the QE meter — or inside
// the next serve's top-up, which reads the whole meter. awaitServe
// closes that window. Entries are keyed per connection and removed when
// the serve's connection ends, so concurrent scenarios never share one.
var serving sync.Map

// awaitServe blocks until the serve on the requester's end c of a quote
// connection has returned. Call it only after qe-bye: from then on the
// serve does local work only, so the wait is short and cannot hang.
func awaitServe(c *netsim.Conn) {
	if done, ok := serving.Load(c.Key()); ok {
		<-done.(chan struct{})
	}
}

func (a *Agent) serveConn(c *netsim.Conn) {
	defer c.Close()
	done := make(chan struct{})
	serving.Store(c.Key(), done)
	defer serving.Delete(c.Key())
	id := a.Shim.Adopt(c)
	defer a.Shim.Forget(id)
	arg := netsim.EncodeSend(id, nil)
	a.trMu.Lock()
	tr, track := a.trace, a.trTrack
	a.trMu.Unlock()
	before := a.QE.Meter().Snapshot()
	_, err := a.xb.Call("serve", arg)
	if tr != nil {
		tr.RecordSpan(track, "attest.quote", a.QE.Meter().Snapshot().Sub(before))
	}
	close(done)
	if err != nil {
		// Refused (e.g. forged report): the requester sees the closed
		// connection. Denial is always in the host's power; wrong quotes
		// are not.
		return
	}
	// Linger until the requester closes: under a fault schedule the final
	// qe-bye may still be in flight (delayed), and closing now would race
	// its delivery. The requester closes as soon as it has read it.
	for {
		if _, err := c.Recv(); err != nil {
			return
		}
	}
}

// Close stops the agent and destroys the quoting enclave.
func (a *Agent) Close() {
	a.l.Close()
	a.QE.Destroy()
}

var (
	quotingMROnce sync.Once
	quotingMR     core.Measurement
)

// QuotingMeasurement returns the well-known measurement of the quoting
// enclave ("a specially provisioned enclave ... whose identity is
// well-known", §2.2). Targets use it to direct their REPORTs.
func QuotingMeasurement() core.Measurement {
	quotingMROnce.Do(func() {
		quotingMR = core.MeasureProgram(quotingProgram())
	})
	return quotingMR
}
