package eval

import (
	"fmt"
	"io"
	"time"

	"sgxnet/internal/attest"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
)

// Fault-tolerance ablation: how the hardened attestation protocol
// degrades as the network adversary's residual powers (delay, loss,
// reordering — §2.1's threat model minus what the channel MACs already
// turn into hard failures) grow. For each fault intensity the rig runs
// repeated remote attestations through the retry driver and reports the
// success rate, how many retries the survivors needed, and the cycle
// overhead relative to the clean run — every timeout and retry charges
// the challenger's meter, so robustness is priced, not free.
//
// The sweep is wall-clock sensitive (timeouts race real goroutine
// scheduling), so unlike the tables it is NOT golden-tested and is not
// part of sgxnet-tables' default output; it runs under the -faults flag.

// FaultTolerancePoint is one intensity step of the ablation.
type FaultTolerancePoint struct {
	// Intensity is the per-link message drop probability.
	Intensity float64
	// Trials is the number of attestation runs attempted.
	Trials int
	// Successes counts runs that established a session within the
	// retry budget.
	Successes int
	// Retries totals the extra protocol runs across all trials.
	Retries int
	// AvgCycles is the mean challenger cycle cost of a successful run
	// (retries and timeouts included); zero if nothing succeeded.
	AvgCycles uint64
	// Overhead is AvgCycles relative to the clean (intensity 0) run.
	Overhead float64
	// Stats sums the fault engine's interventions over all trials.
	Stats netsim.FaultStats
}

// faultTolPolicy bounds each trial: a budget of six protocol runs, and
// deadlines far above the simulator's sub-millisecond fault delays —
// the clean point must never time out, even when -race slows the DH
// and signing work by an order of magnitude.
func faultTolPolicy() attest.RetryPolicy {
	return attest.RetryPolicy{Attempts: 6, RecvTimeout: 800 * time.Millisecond,
		Backoff: time.Millisecond, BackoffMax: 8 * time.Millisecond}
}

// faultTolSchedule builds the per-trial disturbance: every link —
// including the host-local quoting-enclave hop — sees latency, jitter,
// and occasional reordering, plus drops at the swept intensity.
func faultTolSchedule(seed int64, drop float64) *netsim.FaultSchedule {
	return netsim.NewFaultSchedule(seed).AddLink(netsim.LinkFaults{
		Latency:     200 * time.Microsecond,
		Jitter:      200 * time.Microsecond,
		DropProb:    drop,
		ReorderProb: 0.02,
	})
}

// FaultTolerance sweeps drop intensity against attestation success rate
// and cycle overhead: drops of 0 (the overhead baseline) to 20%, four
// trials per point. Schedules are seeded deterministically per (point,
// trial), so the fault draws replay; only the wall-clock timeout
// behavior is environment-dependent.
func (r *Runner) FaultTolerance() ([]FaultTolerancePoint, error) {
	return r.faultTolerance([]float64{0, 0.02, 0.05, 0.10, 0.20}, 4)
}

// faultTolerance runs the sweep with each intensity as an independent
// scenario on the pool. Every point owns a private rig and network, and
// its schedules are seeded by (point, trial), so the fault draws are
// unchanged by fan-out; the baseline-relative overhead is computed after
// the in-order merge.
func (r *Runner) faultTolerance(intensities []float64, trials int) ([]FaultTolerancePoint, error) {
	pol := faultTolPolicy()
	pts, err := mapOrdered(r, len(intensities), func(i int) (FaultTolerancePoint, error) {
		return faultTolPoint(r.trace, i, intensities[i], trials, pol)
	})
	if err != nil {
		return nil, err
	}
	baseline := pts[0].AvgCycles
	for i := range pts {
		if baseline > 0 && pts[i].AvgCycles > 0 {
			pts[i].Overhead = float64(pts[i].AvgCycles) / float64(baseline)
		}
	}
	return pts, nil
}

// faultTolPoint measures one intensity step on a private rig. With a
// trace, each trial's schedule recipe and every fault intervention land
// on a "faults/drop=…" track alongside the challenger's retry events —
// the satellite recipe for replaying a failing faulty run from its
// trace. Fault events interleave on network goroutines, so these
// tracks (like the sweep itself) are wall-clock sensitive and excluded
// from byte-identical goldens; the recipe plus the per-event virtual-
// clock ticks still reproduce the run.
func faultTolPoint(tr *obs.Trace, i int, drop float64, trials int, pol attest.RetryPolicy) (FaultTolerancePoint, error) {
	rig, err := newAttestRig()
	if err != nil {
		return FaultTolerancePoint{}, err
	}
	defer rig.net.Close()
	rig.tShim.SetRecvTimeout(pol.RecvTimeout)
	l, err := rig.hostT.Listen("app")
	if err != nil {
		return FaultTolerancePoint{}, err
	}
	defer l.Close()
	go l.Serve(func(c *netsim.Conn) {
		defer c.Close()
		if _, err := attest.Respond(nil, "", rig.target, rig.tShim, rig.hostT, c); err != nil {
			return
		}
		// Linger: the challenger closes once it is done with the
		// session; closing first would race delayed deliveries.
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	})

	pt := FaultTolerancePoint{Intensity: drop, Trials: trials}
	track := fmt.Sprintf("faults/drop=%.2f", drop)
	var cycles uint64
	for trial := 0; trial < trials; trial++ {
		fs := faultTolSchedule(int64(7000+100*i+trial), drop)
		if tr != nil {
			rec := &obs.FaultRecorder{T: tr, Track: track}
			rec.RecordSchedule(fs.Seed(), fs.String())
			fs.SetObserver(rec)
		}
		rig.net.SetFaults(fs)
		rig.challenger.Meter().SnapshotAndReset()
		dial := func() (*netsim.Conn, error) { return rig.hostC.Dial("target-host", "app") }
		conn, cid, _, retries, err := attest.ChallengeRetry(
			tr, track, rig.challenger, rig.cShim, rig.cState, dial, true, pol)
		pt.Retries += retries
		if err == nil {
			pt.Successes++
			cycles += rig.challenger.Meter().Snapshot().Cycles()
			rig.cState.Drop(cid)
			conn.Close()
		}
		rig.net.SetFaults(nil)
		st := fs.Stats()
		pt.Stats.Dropped += st.Dropped
		pt.Stats.Duplicated += st.Duplicated
		pt.Stats.Corrupted += st.Corrupted
		pt.Stats.Reordered += st.Reordered
		pt.Stats.Delayed += st.Delayed
		pt.Stats.Partitioned += st.Partitioned
		pt.Stats.Crashes += st.Crashes
		pt.Stats.Restarts += st.Restarts
	}
	if pt.Successes > 0 {
		pt.AvgCycles = cycles / uint64(pt.Successes)
	}
	return pt, nil
}

// RenderFaultTolerance prints the sweep.
func RenderFaultTolerance(w io.Writer, pts []FaultTolerancePoint) {
	fmt.Fprintln(w, "Ablation: attestation fault tolerance (drop intensity vs success and cost)")
	tw := newTab(w)
	fmt.Fprintln(tw, "drop\tsuccess\tretries\tchallenger cycles\toverhead\tdropped\tdelayed")
	for _, p := range pts {
		over := "-"
		if p.Overhead > 0 {
			over = fmt.Sprintf("%.2fx", p.Overhead)
		}
		fmt.Fprintf(tw, "%.0f%%\t%d/%d\t%d\t%s\t%s\t%d\t%d\n",
			p.Intensity*100, p.Successes, p.Trials, p.Retries,
			fmtM(p.AvgCycles), over, p.Stats.Dropped, p.Stats.Delayed)
	}
	tw.Flush()
	fmt.Fprintln(w, "retries and timeouts are metered: overhead is the price of surviving loss")
}
