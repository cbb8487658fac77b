package eval

import (
	"fmt"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/middlebox"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
	"sgxnet/internal/tlslite"
)

// MboxRig deploys client → (n middleboxes) → TLS server, for Table 3's
// middlebox row and the §3.3 demonstrations.
type MboxRig struct {
	Net      *netsim.Network
	Client   *netsim.SimHost
	Server   *netsim.SimHost
	Mboxes   []*middlebox.Middlebox
	Endpoint *core.Enclave
	EpShim   *netsim.IOShim
	Session  *tlslite.Session

	arch *core.Signer
}

// DPIPatterns is the rule set the evaluation middleboxes compile.
var DPIPatterns = []string{"malware", "exfiltrate", "attack-signature"}

// NewMboxRig deploys the chain and completes a TLS handshake through it.
func NewMboxRig(nMbox int) (_ *MboxRig, err error) {
	r := &MboxRig{Net: netsim.New()}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	r.arch = arch
	if r.Client, _, err = attest.NewSGXHost(r.Net, "client", arch); err != nil {
		return nil, err
	}
	if r.Server, _, err = attest.NewSGXHost(r.Net, "server", arch); err != nil {
		return nil, err
	}
	sl, err := r.Server.Listen("tls")
	if err != nil {
		return nil, err
	}
	go sl.Serve(func(c *netsim.Conn) {
		s, err := tlslite.ServerHandshake(core.NewMeter(), c)
		if err != nil {
			c.Close()
			return
		}
		for {
			msg, err := s.Recv()
			if err != nil {
				return
			}
			if err := s.Send(append([]byte("ok:"), msg...)); err != nil {
				return
			}
		}
	})

	next := "server|tls"
	for i := nMbox - 1; i >= 0; i-- {
		host, _, err := attest.NewSGXHost(r.Net, fmt.Sprintf("mbox%d", i), arch)
		if err != nil {
			return nil, err
		}
		mb, err := middlebox.Launch(host, middlebox.Config{
			Name:     fmt.Sprintf("mbox%d", i),
			NextHop:  next,
			Patterns: DPIPatterns,
		})
		if err != nil {
			return nil, err
		}
		r.Mboxes = append([]*middlebox.Middlebox{mb}, r.Mboxes...)
		next = host.Name() + "|" + middlebox.DataService
	}

	st := middlebox.NewEndpointState([]core.Measurement{middlebox.Measurement(DPIPatterns, false)})
	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	enc, err := r.Client.Platform().Launch(middlebox.EndpointProgram("eval-endpoint", st), signer)
	if err != nil {
		return nil, err
	}
	r.Endpoint = enc
	r.EpShim = netsim.NewMsgShim(r.Client, enc.Meter())
	enc.BindHost(r.EpShim)

	entry, svc := "server", "tls"
	if nMbox > 0 {
		entry, svc = r.Mboxes[0].Host.Name(), middlebox.DataService
	}
	conn, err := r.Client.Dial(entry, svc)
	if err != nil {
		return nil, err
	}
	r.Session, err = tlslite.ClientHandshake(core.NewMeter(), conn)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ProvisionAll attests and provisions every middlebox, returning the
// attestation count. With a trace, each middlebox's attest-and-provision
// exchange is recorded as a "mbox.provision" span (the endpoint
// enclave's tally delta) and an activation instant on the given track.
func (r *MboxRig) ProvisionAll(tr *obs.Trace, track string) (int, error) {
	n := 0
	for _, mb := range r.Mboxes {
		sp := tr.Begin(track, "mbox.provision", r.Endpoint.Meter())
		active, err := middlebox.Provision(r.Endpoint, r.EpShim, r.Client, mb.Host.Name(), "client", r.Session.ExportKeys())
		sp.End()
		if err != nil {
			return n, err
		}
		if !active {
			return n, fmt.Errorf("eval: %s did not activate", mb.Name)
		}
		tr.Event(track, "mbox.active", map[string]string{"mbox": mb.Name})
		n++
	}
	return n, nil
}

// AddTamperedMbox launches a modified middlebox build on a fresh SGX
// host of this rig (pointing at the server directly). Its quote will
// carry a non-whitelisted measurement.
func (r *MboxRig) AddTamperedMbox(name string) (*middlebox.Middlebox, error) {
	host, _, err := attest.NewSGXHost(r.Net, name, r.arch)
	if err != nil {
		return nil, err
	}
	return middlebox.Launch(host, middlebox.Config{
		Name:     name,
		NextHop:  "server|tls",
		Patterns: DPIPatterns,
		Tampered: true,
	})
}

// Close tears the rig's network down. Call it after the last meter read.
func (r *MboxRig) Close() { r.Net.Close() }

func middleboxAttestations(tr *obs.Trace, track string, nMbox int) (int, error) {
	rig, err := NewMboxRig(nMbox)
	if err != nil {
		return 0, err
	}
	defer rig.Close()
	return rig.ProvisionAll(tr, track)
}
