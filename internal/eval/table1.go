package eval

import (
	"fmt"
	"io"

	"sgxnet/internal/attest"
	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
)

// Table 1: number of instructions during remote attestation, per enclave
// role, with and without the Diffie-Hellman key exchange.

// Table1Row is one (role, DH) cell pair of Table 1.
type Table1Row struct {
	Role   string
	WithDH bool
	Tally  core.Tally
}

// attestRig is a minimal two-host attestation deployment built from the
// public package APIs.
type attestRig struct {
	net        *netsim.Network
	target     *core.Enclave
	challenger *core.Enclave
	quoting    *core.Enclave
	agentT     *attest.Agent
	tShim      *netsim.IOShim
	cShim      *netsim.IOShim
	hostT      *netsim.SimHost
	hostC      *netsim.SimHost
	cState     *attest.ChallengerState
}

func newAttestRig() (_ *attestRig, err error) {
	r := &attestRig{net: netsim.New()}
	defer func() {
		if err != nil {
			r.net.Close()
		}
	}()
	arch, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	r.hostT, r.agentT, err = attest.NewSGXHost(r.net, "target-host", arch)
	if err != nil {
		return nil, err
	}
	r.quoting = r.agentT.QE
	r.hostC, _, err = attest.NewSGXHost(r.net, "challenger-host", arch)
	if err != nil {
		return nil, err
	}

	signer, err := core.NewSigner()
	if err != nil {
		return nil, err
	}
	tst := attest.NewTargetState()
	tprog := &core.Program{Name: "eval-target", Version: "1", Handlers: map[string]core.Handler{}}
	attest.AddTargetHandlers(tprog, tst)
	r.target, err = r.hostT.Platform().Launch(tprog, signer)
	if err != nil {
		return nil, err
	}
	r.tShim = netsim.NewMsgShim(r.hostT, r.target.Meter())
	var mhT netsim.MultiHost
	mhT.Mount("msg.", r.tShim)
	r.target.BindHost(&mhT)

	cst := attest.NewChallengerState(attest.Policy{})
	r.cState = cst
	cprog := &core.Program{Name: "eval-challenger", Version: "1", Handlers: map[string]core.Handler{}}
	attest.AddChallengerHandlers(cprog, cst)
	r.challenger, err = r.hostC.Platform().Launch(cprog, signer)
	if err != nil {
		return nil, err
	}
	r.cShim = netsim.NewMsgShim(r.hostC, r.challenger.Meter())
	var mhC netsim.MultiHost
	mhC.Mount("msg.", r.cShim)
	r.challenger.BindHost(&mhC)
	return r, nil
}

// run performs one remote attestation and returns the per-role tallies.
// With a trace, the three protocol roles are recorded on their own
// tracks (<base>/target, <base>/quoting, <base>/challenger). Each role's
// track carries the protocol-round spans plus a run total equal to its
// meter tally for the run, so the analyzer's attribution closes exactly:
// every instruction a role charges, it charges inside Respond, the
// quote-service call, or Challenge.
func (r *attestRig) run(tr *obs.Trace, trackBase string, wantDH bool) (target, quoting, challenger core.Tally, err error) {
	r.target.Meter().SnapshotAndReset()
	r.quoting.Meter().SnapshotAndReset()
	r.challenger.Meter().SnapshotAndReset()
	if tr != nil {
		r.agentT.SetTrace(tr, trackBase+"/quoting")
	}

	l, err := r.hostT.Listen("app")
	if err != nil {
		return
	}
	defer l.Close()
	errc := make(chan error, 1)
	go func() {
		sc, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		_, err = attest.Respond(tr, trackBase+"/target", r.target, r.tShim, r.hostT, sc)
		errc <- err
	}()
	conn, err := r.hostC.Dial("target-host", "app")
	if err != nil {
		return
	}
	if _, _, err = attest.Challenge(tr, trackBase+"/challenger", r.challenger, r.cShim, conn, wantDH); err != nil {
		return
	}
	if err = <-errc; err != nil {
		return
	}
	target = r.target.Meter().Snapshot()
	quoting = r.quoting.Meter().Snapshot()
	challenger = r.challenger.Meter().Snapshot()
	tr.Total(trackBase+"/target", "run.total", target)
	tr.Total(trackBase+"/quoting", "run.total", quoting)
	tr.Total(trackBase+"/challenger", "run.total", challenger)
	return target, quoting, challenger, nil
}

// Table1 measures all six cells, each (DH, role) run recorded on tracks
// "table1/dh=<v>/<role>" of the runner's trace.
func (r *Runner) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, dh := range []bool{false, true} {
		rig, err := newAttestRig()
		if err != nil {
			return nil, err
		}
		tt, qt, ct, err := rig.run(r.trace, fmt.Sprintf("table1/dh=%v", dh), dh)
		rig.net.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Table1Row{Role: "target", WithDH: dh, Tally: tt},
			Table1Row{Role: "quoting", WithDH: dh, Tally: qt},
			Table1Row{Role: "challenger", WithDH: dh, Tally: ct},
		)
	}
	return rows, nil
}

// RenderTable1 prints the table in the paper's layout with reference
// values, plus the §5 cycle totals.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: instructions during remote attestation (measured vs paper)")
	tw := newTab(w)
	fmt.Fprintln(tw, "role\tDH\tSGX(U)\tpaper\tnormal\tpaper")
	var remoteCycles, challengerCycles uint64
	for _, r := range rows {
		key := r.Role + "/noDH"
		dh := "w/o"
		if r.WithDH {
			key, dh = r.Role+"/DH", "w/"
		}
		ref := paper.table1[key]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\n",
			r.Role, dh, r.Tally.SGXU, ref[0], fmtM(r.Tally.Normal), fmtM(ref[1]))
		if r.WithDH {
			switch r.Role {
			case "target", "quoting":
				remoteCycles += r.Tally.Cycles()
			case "challenger":
				challengerCycles = r.Tally.Cycles()
			}
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "challenger cycles ≈ %s (paper ≈626M); remote platform ≈ %s (paper ≈8033M)\n",
		fmtM(challengerCycles), fmtM(remoteCycles))
}
