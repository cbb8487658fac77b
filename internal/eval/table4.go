package eval

import (
	"fmt"
	"io"
	"strings"

	"sgxnet/internal/core"
	"sgxnet/internal/sdnctl"
	"sgxnet/internal/topo"
)

// Table 4 and Figure 3: cost of SDN-based inter-domain routing, native
// vs SGX, and its growth with the number of ASes.

// CanonicalSeed is the topology seed of the paper-scale runs.
const CanonicalSeed = 42

// Table4Result holds both deployments' steady-state tallies at 30 ASes.
type Table4Result struct {
	N      int
	Native *sdnctl.RunReport
	SGX    *sdnctl.RunReport
}

// Table4 runs the 30-AS workload through both deployments.
func (r *Runner) Table4() (*Table4Result, error) {
	return r.Table4At(30)
}

// Table4At runs the workload at a chosen AS count, with the native and
// SGX deployments as parallel legs when the pool allows. The two legs
// build disjoint networks and meters, so their tallies are identical to
// a serial run.
func (r *Runner) Table4At(n int) (*Table4Result, error) {
	return r.table4At(n, fmt.Sprintf("table4/n=%d", n))
}

// table4At is Table4At on an explicit track namespace, so Table 4 and a
// Figure 3 point at the same AS count never collide in one trace. The
// native and SGX legs get distinct tracks — they may run concurrently.
func (r *Runner) table4At(n int, trackBase string) (*Table4Result, error) {
	tp, err := topo.Random(topo.Config{N: n, Seed: CanonicalSeed, PrefJitter: true})
	if err != nil {
		return nil, err
	}
	native, sgx, err := pair(r,
		func() (*sdnctl.RunReport, error) {
			return sdnctl.RunNative(tp, r.trace, trackBase+"/native")
		},
		func() (*sdnctl.RunReport, error) {
			return sdnctl.RunSGX(tp, sdnctl.SGXConfig{Trace: r.trace, Track: trackBase + "/sgx"})
		},
	)
	if err != nil {
		return nil, err
	}
	return &Table4Result{N: n, Native: native, SGX: sgx}, nil
}

// RenderTable4 prints the table with reference values.
func RenderTable4(w io.Writer, r *Table4Result) {
	fmt.Fprintf(w, "Table 4: costs of SDN-based inter-domain routing (%d ASes; measured vs paper)\n", r.N)
	tw := newTab(w)
	fmt.Fprintln(tw, "controller\tmetric\tw/o SGX\tpaper\tw/ SGX\tpaper")
	fmt.Fprintf(tw, "inter-domain\tSGX(U) inst.\t-\t-\t%d\t%d\n",
		r.SGX.InterDomain.SGXU, paper.table4["inter/sgx/sgxu"])
	fmt.Fprintf(tw, "inter-domain\tnormal inst.\t%s\t%s\t%s\t%s\n",
		fmtM(r.Native.InterDomain.Normal), fmtM(paper.table4["inter/native"]),
		fmtM(r.SGX.InterDomain.Normal), fmtM(paper.table4["inter/sgx"]))
	fmt.Fprintf(tw, "AS-local (avg)\tSGX(U) inst.\t-\t-\t%d\t%d\n",
		r.SGX.ASLocalAvg().SGXU, paper.table4["aslocal/sgx/sgxu"])
	fmt.Fprintf(tw, "AS-local (avg)\tnormal inst.\t%s\t%s\t%s\t%s\n",
		fmtM(r.Native.ASLocalAvg().Normal), fmtM(paper.table4["aslocal/native"]),
		fmtM(r.SGX.ASLocalAvg().Normal), fmtM(paper.table4["aslocal/sgx"]))
	tw.Flush()
	fmt.Fprintf(w, "inter-domain overhead: +%.0f%% (paper: +82%%); AS-local: +%.0f%% (paper: +69%%)\n",
		100*(float64(r.SGX.InterDomain.Normal)/float64(r.Native.InterDomain.Normal)-1),
		100*(float64(r.SGX.ASLocalAvg().Normal)/float64(r.Native.ASLocalAvg().Normal)-1))
}

// Figure3Point is one x-position of Figure 3.
type Figure3Point struct {
	N            int
	NativeCycles uint64
	SGXCycles    uint64
}

// Figure3 sweeps the paper's x-axis, 5 to 50 ASes.
func (r *Runner) Figure3() ([]Figure3Point, error) {
	return r.figure3([]int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50})
}

// figure3 sweeps the given AS counts and reports the inter-domain
// controller's cycle consumption for both deployments. Points fan out
// across the pool and merge back in input order.
func (r *Runner) figure3(ns []int) ([]Figure3Point, error) {
	return mapOrdered(r, len(ns), func(i int) (Figure3Point, error) {
		res, err := r.table4At(ns[i], fmt.Sprintf("fig3/n=%d", ns[i]))
		if err != nil {
			return Figure3Point{}, err
		}
		return Figure3Point{
			N:            ns[i],
			NativeCycles: res.Native.InterDomain.Cycles(),
			SGXCycles:    res.SGX.InterDomain.Cycles(),
		}, nil
	})
}

// RenderFigure3 prints the series with a crude text plot.
func RenderFigure3(w io.Writer, pts []Figure3Point) {
	fmt.Fprintln(w, "Figure 3: CPU cycles of the inter-domain controller vs number of ASes")
	tw := newTab(w)
	fmt.Fprintln(tw, "ASes\tnative cycles\tSGX cycles\toverhead")
	var maxC uint64
	for _, p := range pts {
		if p.SGXCycles > maxC {
			maxC = p.SGXCycles
		}
	}
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%s\t%s\t+%.0f%%\n",
			p.N, fmtM(p.NativeCycles), fmtM(p.SGXCycles),
			100*(float64(p.SGXCycles)/float64(p.NativeCycles)-1))
	}
	tw.Flush()
	fmt.Fprintln(w, "\nSGX cycles (▇) vs native (░):")
	for _, p := range pts {
		bar := func(v uint64, ch string) string {
			return strings.Repeat(ch, int(v*50/maxC))
		}
		fmt.Fprintf(w, "%3d ░%s\n    ▇%s\n", p.N, bar(p.NativeCycles, "░"), bar(p.SGXCycles, "▇"))
	}
}

// Sanity guards used by tests.
var _ = core.Tally{}
