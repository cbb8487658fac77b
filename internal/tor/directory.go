package tor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/ratls"
	"sgxnet/internal/wire"
)

// Directory authorities (§3.2). Tor runs a small set of authorities that
// perform admission control, flag or drop bad relays, and produce a
// consensus by majority vote. They are the system's trust root — and a
// compromise target: "multiple directory authorities have actually been
// compromised" [11]. The SGX deployment keeps authority keys and the
// relay list inside enclaves: a compromised host can kill the authority
// (denial of service) but cannot alter its votes or admit malicious ORs.

// AuthorityVersion is the community-verified directory build.
const AuthorityVersion = "1.0"

// DirService is the netsim service authorities listen on.
const DirService = "dir"

// Authority is one directory authority. In the SGX deployment the relay
// list lives inside the enclave ("they can keep authority keys and list
// of Tor nodes inside the enclaves", §3.2) and persists across restarts
// through sealed storage; the untrusted runtime holds only the sealed
// blob.
type Authority struct {
	Name string
	Host *netsim.SimHost
	SGX  bool

	mu        sync.Mutex
	killed    bool // DoS'd (all an attacker can do to an SGX authority)
	subverted bool // behavior-altered (possible only without SGX)

	hostView *dirView // non-SGX view (attacker-reachable)

	enclave *core.Enclave
	view    *dirView // enclave-held view (SGX)
	tstate  *attest.TargetState
	cstate  *attest.ChallengerState
	shim    *netsim.IOShim
	signer  *core.Signer
	wl      []core.Measurement

	// verifier, when non-nil, admits relays by RA-TLS certificate with
	// an amortizing quote-verification cache (AuthorityConfig.RATLS).
	verifier *ratls.Verifier

	// Attestations counts remote attestations this authority performed
	// against ORs (Table 3's "Tor network (Authority)" row).
	Attestations int
	// CertAdmissions counts RA-TLS certificate admissions.
	CertAdmissions int

	trace   *obs.Trace
	trTrack string
}

// SetTrace makes the authority record each OR admission attestation as
// spans on the given track (carrying the authority enclave's tally
// delta), plus a "tor.admit" instant per admitted OR. Admissions on one
// authority are serialized by the callers (deploy and re-scan loops),
// so the track stays sequential.
func (a *Authority) SetTrace(tr *obs.Trace, track string) {
	a.mu.Lock()
	a.trace, a.trTrack = tr, track
	a.mu.Unlock()
}

// dirView is an authority's relay list: enclave-private on an SGX
// authority, host memory on any other.
type dirView struct {
	mu       sync.Mutex
	approved map[string]Descriptor
}

func newDirView() *dirView { return &dirView{approved: make(map[string]Descriptor)} }

func (v *dirView) admit(ds ...Descriptor) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, d := range ds {
		v.approved[d.Name] = d
	}
}

func (v *dirView) drop(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.approved, name)
}

// list returns the relays in name order.
func (v *dirView) list() []Descriptor {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Descriptor, 0, len(v.approved))
	for _, d := range v.approved {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AuthorityConfig configures a launched authority.
type AuthorityConfig struct {
	Name   string
	SGX    bool
	Signer *core.Signer
	// ORWhitelist is the measurement set SGX authorities accept when
	// attesting onion routers.
	ORWhitelist []core.Measurement
	// RATLS equips the authority with an RA-TLS verifier so relays are
	// admitted by certificate (AdmitByCertificate) instead of the full
	// interactive attestation. The verifier caches verdicts: N
	// admissions of one certificate cost one verification, and the
	// instance-ID table rejects Sybil re-registration. The verifier
	// stripes its locks over 4 shards.
	RATLS bool
}

// authorityProgram builds the authority enclave: attestation target (for
// clients attesting the directory), challenger (for the authority
// attesting ORs), and the in-enclave relay-list handlers, in one
// measured build.
func authorityProgram(tst *attest.TargetState, cst *attest.ChallengerState, view *dirView) *core.Program {
	prog := &core.Program{
		Name:    "tor-dirauth",
		Version: AuthorityVersion,
		Handlers: map[string]core.Handler{
			"dir.admit": func(env *core.Env, arg []byte) ([]byte, error) {
				var d Descriptor
				if err := wire.Decode(arg, &d); err != nil {
					return nil, err
				}
				view.admit(d)
				return nil, nil
			},
			"dir.drop": func(env *core.Env, arg []byte) ([]byte, error) {
				view.drop(string(arg))
				return nil, nil
			},
			"dir.vote": func(env *core.Env, arg []byte) ([]byte, error) {
				return wire.Encode(view.list())
			},
			// dir.seal / dir.restore persist the relay list across
			// restarts: the untrusted host stores only a sealed blob.
			"dir.seal": func(env *core.Env, arg []byte) ([]byte, error) {
				raw, err := wire.Encode(view.list())
				if err != nil {
					return nil, err
				}
				return env.SealData(core.KeySeal, raw)
			},
			"dir.restore": func(env *core.Env, arg []byte) ([]byte, error) {
				raw, err := env.UnsealData(core.KeySeal, arg)
				if err != nil {
					return nil, err
				}
				ds, err := decodeDescriptors(raw)
				if err != nil {
					return nil, err
				}
				view.admit(ds...)
				return nil, nil
			},
		},
	}
	attest.AddTargetHandlers(prog, tst)
	attest.AddChallengerHandlers(prog, cst)
	return prog
}

// AuthorityMeasurement is the whitelisted directory-authority identity.
func AuthorityMeasurement() core.Measurement {
	return core.MeasureProgram(authorityProgram(attest.NewTargetState(), attest.NewChallengerState(attest.Policy{}), newDirView()))
}

// LaunchAuthority starts a directory authority on the host.
func LaunchAuthority(host *netsim.SimHost, cfg AuthorityConfig) (*Authority, error) {
	a := &Authority{
		Name:     cfg.Name,
		Host:     host,
		SGX:      cfg.SGX,
		hostView: newDirView(),
	}
	if cfg.SGX {
		signer := cfg.Signer
		if signer == nil {
			var err error
			signer, err = core.NewSigner()
			if err != nil {
				return nil, err
			}
		}
		a.signer = signer
		a.wl = append([]core.Measurement(nil), cfg.ORWhitelist...)
		if cfg.RATLS {
			a.verifier = ratls.NewVerifier(attest.Policy{
				AllowedEnclaves: a.wl,
				RejectDebug:     true,
			}, 4)
		}
		if err := a.launchEnclave(); err != nil {
			return nil, err
		}
	}
	l, err := host.Listen(DirService)
	if err != nil {
		return nil, err
	}
	go l.Serve(a.serveConn)
	return a, nil
}

// SetRecvTimeout bounds the authority enclave's receives — required
// under a fault schedule, where a lost challenger message would
// otherwise wedge the responder inside a half-finished attestation.
func (a *Authority) SetRecvTimeout(d time.Duration) {
	if a.shim != nil {
		a.shim.SetRecvTimeout(d)
	}
}

// serveConn answers directory requests. SGX authorities first serve a
// remote attestation when the peer asks for one.
func (a *Authority) serveConn(conn *netsim.Conn) {
	defer conn.Close()
	first, err := conn.Recv()
	if err != nil {
		return
	}
	if string(first) == "attest" {
		if !a.SGX || a.Killed() {
			return
		}
		if _, err := attest.Respond(nil, "", a.enclave, a.shim, a.Host, conn); err != nil {
			return
		}
		first, err = conn.Recv()
		if err != nil {
			return
		}
	}
	if string(first) != "consensus" {
		return
	}
	if a.Killed() {
		return
	}
	view := a.Vote()
	out, err := wire.Encode(view)
	if err != nil {
		return
	}
	if conn.Send(out) != nil {
		return
	}
	// Linger until the requester closes: under a fault schedule the
	// consensus may still be in flight (delayed), and closing now would
	// race its delivery.
	for {
		if _, err := conn.Recv(); err != nil {
			return
		}
	}
}

// launchEnclave (re)creates the authority enclave with a fresh view.
func (a *Authority) launchEnclave() error {
	a.tstate = attest.NewTargetState()
	a.cstate = attest.NewChallengerState(attest.Policy{
		AllowedEnclaves: a.wl,
		RejectDebug:     true,
	})
	a.view = newDirView()
	enc, err := a.Host.Platform().Launch(authorityProgram(a.tstate, a.cstate, a.view), a.signer)
	if err != nil {
		return err
	}
	a.enclave = enc
	a.shim = netsim.NewMsgShim(a.Host, enc.Meter())
	enc.BindHost(a.shim)
	return nil
}

// Enclave returns the authority's enclave (nil when not SGX).
func (a *Authority) Enclave() *core.Enclave { return a.enclave }

// SealState exports the enclave's relay list as a sealed blob the
// untrusted host may store.
func (a *Authority) SealState() ([]byte, error) {
	if !a.SGX {
		return nil, fmt.Errorf("tor: authority %s is not SGX-enabled", a.Name)
	}
	return a.enclave.Call("dir.seal", nil)
}

// Restart models a reboot of an SGX authority: the enclave is destroyed
// and relaunched, then restored from the sealed blob. Keys and the relay
// list survive without ever being visible to the host.
func (a *Authority) Restart(sealed []byte) error {
	if !a.SGX {
		return fmt.Errorf("tor: authority %s is not SGX-enabled", a.Name)
	}
	a.enclave.Destroy()
	if err := a.launchEnclave(); err != nil {
		return err
	}
	if sealed != nil {
		if _, err := a.enclave.Call("dir.restore", sealed); err != nil {
			return err
		}
	}
	return nil
}

// AdmitManually approves an OR by operator fiat — the status quo the
// paper criticizes ("current model of manually admitting ORs essentially
// relies on trust on non-trustworthy volunteers").
func (a *Authority) AdmitManually(d Descriptor) {
	if a.SGX && !a.Killed() {
		if raw, err := wire.Encode(d); err == nil {
			a.enclave.Call("dir.admit", raw)
		}
		return
	}
	a.hostView.admit(d)
}

// AdmitByAttestation attests the OR's enclave and approves it only if
// the measurement matches the community-verified build. This is the
// paper's "incremental addition of SGX-enabled ORs": admission becomes
// automatic, and "malicious Tor nodes fail to pass an enclave integrity
// check".
func (a *Authority) AdmitByAttestation(d Descriptor) error {
	if !a.SGX {
		return fmt.Errorf("tor: authority %s is not SGX-enabled", a.Name)
	}
	if a.Killed() {
		return fmt.Errorf("tor: authority %s is down", a.Name)
	}
	conn, err := a.Host.Dial(d.Host, ORService)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send([]byte("attest")); err != nil {
		return err
	}
	a.mu.Lock()
	a.Attestations++
	tr, track := a.trace, a.trTrack
	a.mu.Unlock()
	if _, _, err := attest.Challenge(tr, track, a.enclave, a.shim, conn, true); err != nil {
		return fmt.Errorf("tor: OR %s failed attestation: %w", d.Name, err)
	}
	raw, err := wire.Encode(d)
	if err != nil {
		return err
	}
	if _, err := a.enclave.Call("dir.admit", raw); err != nil {
		return err
	}
	tr.Event(track, "tor.admit", map[string]string{"or": d.Name})
	return nil
}

// AdmitByCertificate admits an OR by its RA-TLS certificate: the quote
// embedded in the certificate proves the relay's build, so admission
// needs no interactive protocol — and the verification cache makes
// re-admission (directory re-scans, authority restarts against the
// same relay set) cost a cache lookup instead of two signature checks.
// The instance-ID table refuses the same enclave instance registering
// under a second relay name (Sybil re-registration).
func (a *Authority) AdmitByCertificate(d Descriptor, cert []byte) error {
	if a.verifier == nil {
		return fmt.Errorf("tor: authority %s has no RA-TLS verifier", a.Name)
	}
	if a.Killed() {
		return fmt.Errorf("tor: authority %s is down", a.Name)
	}
	a.mu.Lock()
	a.CertAdmissions++
	tr, track := a.trace, a.trTrack
	a.mu.Unlock()
	if _, err := a.verifier.Admit(a.enclave.Meter(), cert, d.Name); err != nil {
		return fmt.Errorf("tor: OR %s failed certificate admission: %w", d.Name, err)
	}
	raw, err := wire.Encode(d)
	if err != nil {
		return err
	}
	if _, err := a.enclave.Call("dir.admit", raw); err != nil {
		return err
	}
	tr.Event(track, "tor.admit", map[string]string{"or": d.Name, "via": "ratls"})
	return nil
}

// RATLSStats snapshots the authority's verification-cache counters
// (zero value when the authority has no RA-TLS verifier).
func (a *Authority) RATLSStats() ratls.Stats {
	if a.verifier == nil {
		return ratls.Stats{}
	}
	return a.verifier.Stats()
}

// Drop removes an OR from this authority's view.
func (a *Authority) Drop(name string) {
	if a.SGX && !a.Killed() {
		a.enclave.Call("dir.drop", []byte(name))
		return
	}
	a.hostView.drop(name)
}

// Subvert models a host compromise. A non-SGX authority's behavior is
// fully attacker-controlled afterwards; an SGX authority can only be
// killed (denial of service), because the enclave's keys and logic are
// out of the attacker's reach.
func (a *Authority) Subvert() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.SGX {
		a.killed = true
		return
	}
	a.subverted = true
}

// Killed reports whether the authority is down.
func (a *Authority) Killed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.killed
}

// InjectMaliciousVote makes a subverted authority vote for an attacker
// OR. It fails on SGX authorities: there is no way to make the enclave
// cast that vote.
func (a *Authority) InjectMaliciousVote(d Descriptor) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.subverted {
		return fmt.Errorf("tor: authority %s is not attacker-controlled", a.Name)
	}
	a.hostView.admit(d)
	return nil
}

// Vote returns the authority's current view (empty if killed).
func (a *Authority) Vote() []Descriptor {
	if a.Killed() {
		return nil
	}
	if a.SGX {
		raw, err := a.enclave.Call("dir.vote", nil)
		if err != nil {
			return nil
		}
		ds, err := decodeDescriptors(raw)
		if err != nil {
			return nil
		}
		return ds
	}
	return a.hostView.list()
}

// Consensus computes the OR set approved by a majority of *live*
// authorities — Tor's defense against individual authority compromise.
func Consensus(auths []*Authority) []Descriptor {
	var views [][]Descriptor
	for _, a := range auths {
		if !a.Killed() {
			views = append(views, a.Vote())
		}
	}
	if len(views) == 0 {
		return nil
	}
	return majority(views)
}

// majority keeps the descriptors that more than half of views list, in
// name order; a name listed with different descriptors keeps the one
// seen last.
func majority(views [][]Descriptor) []Descriptor {
	votes := make(map[string]int)
	desc := make(map[string]Descriptor)
	for _, v := range views {
		for _, d := range v {
			votes[d.Name]++
			desc[d.Name] = d
		}
	}
	quorum := len(views)/2 + 1
	var out []Descriptor
	for name, n := range votes {
		if n >= quorum {
			out = append(out, desc[name])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// decodeDescriptors reads a relay list.
func decodeDescriptors(b []byte) ([]Descriptor, error) {
	var ds []Descriptor
	if err := wire.Decode(b, &ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// SetORWhitelist replaces the measurement set the authority accepts when
// attesting onion routers — used when the authority follows a community
// release registry (§4) and a new release revokes an old build.
func (a *Authority) SetORWhitelist(ms []core.Measurement) error {
	if !a.SGX {
		return fmt.Errorf("tor: authority %s is not SGX-enabled", a.Name)
	}
	a.mu.Lock()
	a.wl = append([]core.Measurement(nil), ms...)
	a.mu.Unlock()
	a.cstate.SetPolicy(attest.Policy{AllowedEnclaves: ms, RejectDebug: true})
	if a.verifier != nil {
		// Revocation reaches the certificate cache too: the epoch bump
		// forces a full re-verification of every cached relay against
		// the new whitelist on its next admission.
		a.verifier.SetPolicy(attest.Policy{AllowedEnclaves: ms, RejectDebug: true})
	}
	return nil
}

// Reverify re-attests every OR in the authority's view against the
// current whitelist, dropping those that no longer pass — the ongoing
// integrity scanning the paper describes ("authorities can attest their
// integrity").
func (a *Authority) Reverify() (dropped []string) {
	for _, d := range a.Vote() {
		if !d.SGX {
			continue
		}
		if err := a.AdmitByAttestation(d); err != nil {
			a.Drop(d.Name)
			dropped = append(dropped, d.Name)
		}
	}
	return dropped
}
