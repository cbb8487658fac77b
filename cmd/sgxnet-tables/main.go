// Command sgxnet-tables regenerates the tables and figures of the
// paper's evaluation (§5), the ablations and the extension sweeps.
//
// Usage:
//
//	sgxnet-tables                  # every deterministic section
//	sgxnet-tables -table 1         # one table (1–4)
//	sgxnet-tables -fig 3           # Figure 3 sweep
//	sgxnet-tables -fig 3 -csv      # Figure 3 as CSV, for plotting
//	sgxnet-tables -xcall-sweep     # one section alone (-h lists every section flag)
//	sgxnet-tables -faults          # fault-tolerance sweep (wall-clock sensitive)
//	sgxnet-tables -workers 8       # evaluation-engine parallelism (0 = GOMAXPROCS)
//	sgxnet-tables -trace out.trace # also record a deterministic trace (JSONL)
//	sgxnet-tables -trace out.json -trace-format chrome  # Perfetto-viewable
//	sgxnet-tables -series out.csv  # also record windowed time-series metrics
//	sgxnet-tables -series out.om -series-format openmetrics
//	sgxnet-tables -cpuprofile cpu.pprof  # host CPU profile, labelled by section
//	go tool pprof -tags cpu.pprof        # its CPU per section
//	sgxnet-tables -memprofile mem.pprof  # host heap profile, written at exit
//	go tool pprof -sample_index=alloc_space -top mem.pprof  # allocation by site
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"sgxnet/internal/core"
	"sgxnet/internal/eval"
	"sgxnet/internal/obs"
	"sgxnet/internal/obs/series"
)

// A section is one block of the transcript: one eval.Runner method and
// its renderer. The flags that select sections, the default run and the
// golden test all derive from the sections table, so adding a section is
// one row there plus its eval file.
type section struct {
	name  string // names the section in errors and tests
	flag  string // the flag that selects the section alone
	arg   int    // the value -table or -fig takes to select it; 0 for a bool flag
	usage string // the bool flag's usage text
	extra bool   // not byte-reproducible: runs only when selected
	run   func(r *eval.Runner, w io.Writer, o options) error
}

// sections lists every section in transcript order.
var sections = []section{
	{name: "table 1", flag: "table", arg: 1, run: show((*eval.Runner).Table1, eval.RenderTable1)},
	{name: "table 2", flag: "table", arg: 2, run: show((*eval.Runner).Table2, eval.RenderTable2)},
	{name: "table 3", flag: "table", arg: 3, run: show((*eval.Runner).Table3, eval.RenderTable3)},
	{name: "table 4", flag: "table", arg: 4, run: show((*eval.Runner).Table4, eval.RenderTable4)},
	{name: "figure 3", flag: "fig", arg: 3, run: figure3},
	{name: "ablations", flag: "ablations",
		usage: "run only the ablation experiments",
		run:   show((*eval.Runner).Ablations, eval.RenderAblations)},
	{name: "epc sweep", flag: "epc-sweep",
		usage: "run only the EPC oversubscription sweep (multi-tenant paging overhead)",
		run:   show((*eval.Runner).EPCSweep, eval.RenderEPCSweep)},
	{name: "xcall sweep", flag: "xcall-sweep",
		usage: "run only the switchless-call ablation (ring batching vs synchronous crossings)",
		run:   show((*eval.Runner).XcallSweep, eval.RenderXcallSweep)},
	{name: "load sweep", flag: "load-sweep",
		usage: "run only the open-loop load sweep (latency percentiles under seeded arrivals)",
		run:   show((*eval.Runner).LoadSweep, eval.RenderLoadSweep)},
	{name: "scale sweep", flag: "scale-sweep",
		usage: "run only the discrete-event scale sweep (thousands of ASes/relays, millions of flows on the event kernel)",
		run:   show((*eval.Runner).ScaleSweep, eval.RenderScaleSweep)},
	{name: "ratls sweep", flag: "ratls-sweep",
		usage: "run only the attested-channel sweep (cold vs warm RA-TLS quote verification across client counts)",
		run:   show((*eval.Runner).RATLSSweep, eval.RenderRATLSSweep)},
	{name: "chain sweep", flag: "chain-sweep",
		usage: "run only the trusted NF-chain sweep (pipeline depth x xcall batch x rule-set size, native vs SGX)",
		run:   show((*eval.Runner).ChainSweep, eval.RenderChainSweep)},
	// The fault sweep races real timeouts against goroutine scheduling,
	// so its numbers are not byte-reproducible.
	{name: "fault-tolerance sweep", flag: "faults", extra: true,
		usage: "run the fault-tolerance sweep (timing-dependent, excluded from -ablations and the default run)",
		run:   show((*eval.Runner).FaultTolerance, eval.RenderFaultTolerance)},
}

// show adapts an eval.Runner method and its renderer to a section's run.
func show[T any](run func(*eval.Runner) (T, error), render func(io.Writer, T)) func(*eval.Runner, io.Writer, options) error {
	return func(r *eval.Runner, w io.Writer, _ options) error {
		v, err := run(r)
		if err != nil {
			return err
		}
		render(w, v)
		return nil
	}
}

// figure3 renders Figure 3 as the text chart, or with -csv as CSV.
func figure3(r *eval.Runner, w io.Writer, o options) error {
	render := eval.RenderFigure3
	if o.csv {
		render = func(w io.Writer, pts []eval.Figure3Point) {
			fmt.Fprintln(w, "ases,native_cycles,sgx_cycles")
			for _, p := range pts {
				fmt.Fprintf(w, "%d,%d,%d\n", p.N, p.NativeCycles, p.SGXCycles)
			}
		}
	}
	return show((*eval.Runner).Figure3, render)(r, w, o)
}

// options is a parsed command line.
type options struct {
	picked       map[string]int // selecting flags given: -table/-fig's value, or 1 for a bool flag
	csv          bool
	workers      int    // evaluation-engine parallelism; 0 = GOMAXPROCS
	trace        string // trace output path; "" disables tracing
	traceFormat  string // "jsonl" (default) or "chrome"
	series       string // series output path; "" disables the sampler layer
	seriesFormat string // "csv" (default) or "openmetrics"
	cpuProfile   string // CPU profile output path; "" = off
	memProfile   string // heap profile output path; "" = off
}

// runs reports whether the run includes s: the sections the selecting
// flags pick, or with none given, every section but the extras. A flag
// that picks nothing (-table 5) prints nothing.
func (o options) runs(s section) bool {
	if len(o.picked) == 0 {
		return !s.extra
	}
	return o.picked[s.flag] == max(s.arg, 1)
}

// parse reads a command line into options. The flags that select
// sections come from the sections table.
func parse(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	numbered := map[string]*int{
		"table": fs.Int("table", 0, "regenerate one table (1-4); 0 = all"),
		"fig":   fs.Int("fig", 0, "regenerate one figure (3); 0 = all"),
	}
	alone := make(map[string]*bool)
	for _, s := range sections {
		if s.arg == 0 {
			alone[s.flag] = fs.Bool(s.flag, false, s.usage)
		}
	}
	fs.BoolVar(&o.csv, "csv", false, "emit Figure 3 as CSV (for plotting) instead of the text chart")
	fs.IntVar(&o.workers, "workers", 0, "evaluation-engine worker pool size; 0 = GOMAXPROCS, 1 = serial")
	fs.StringVar(&o.trace, "trace", "", "write a deterministic trace of the run to this file")
	fs.StringVar(&o.traceFormat, "trace-format", "jsonl", "trace format: jsonl (for sgxnet-trace) or chrome (for Perfetto)")
	fs.StringVar(&o.series, "series", "", "write windowed time-series metrics (virtual-clock windows) to this file")
	fs.StringVar(&o.seriesFormat, "series-format", "csv", "series format: csv (for sgxnet-trace -series) or openmetrics")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file, each sample labelled with its section")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit: the run's allocations by site")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.picked = make(map[string]int)
	for name, v := range numbered {
		if *v != 0 {
			o.picked[name] = *v
		}
	}
	for name, on := range alone {
		if *on {
			o.picked[name] = 1
		}
	}
	return o, nil
}

// emit writes the selected sections. Each section is an independent
// scenario run: it renders into a private buffer on the evaluation
// engine's worker pool, and the buffers are concatenated in table
// order, each followed by a blank line. Every section but the extras is
// byte-for-byte reproducible at any worker count — the golden test
// depends on it. Each section runs under a "section" profiler label,
// which the goroutines it starts inherit, so a -cpuprofile splits by
// section (go tool pprof -tagfocus section=...).
func emit(w io.Writer, o options) (err error) {
	if o.memProfile != "" {
		write, perr := profileHeap(o.memProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if werr := write(); err == nil {
				err = werr
			}
		}()
	}
	if o.cpuProfile != "" {
		stop, perr := profileCPU(o.cpuProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}
	r := eval.NewRunner(o.workers)
	var tr *obs.Trace
	if o.trace != "" {
		// The registry observes every SGX instruction the scenarios
		// execute: platforms created from here on inherit it as their
		// probe. Its counters ride along in the trace's "metrics" track.
		reg := obs.NewRegistry()
		tr = obs.New(reg)
		core.SetDefaultProbe(reg)
		defer core.SetDefaultProbe(nil)
		r.SetTrace(tr)
	}
	var set *series.Set
	if o.series != "" {
		// The windowed sampler layer: instrumented sweeps observe
		// per-window counters and gauges on their virtual clocks. The
		// reduction is order-invariant and tracks are per-cell, so the
		// exported series are byte-identical at any -workers count.
		set = series.NewSet(0)
		r.SetSeries(set)
	}

	var selected []eval.Section
	for _, s := range sections {
		if !o.runs(s) {
			continue
		}
		selected = append(selected, func() (out []byte, err error) {
			pprof.Do(context.Background(), pprof.Labels("section", s.name), func(context.Context) {
				var b bytes.Buffer
				if err = s.run(r, &b, o); err != nil {
					err = fmt.Errorf("%s: %w", s.name, err)
					return
				}
				fmt.Fprintln(&b)
				out = b.Bytes()
			})
			return out, err
		})
	}
	outs, err := r.RenderAll(selected)
	if err != nil {
		return err
	}
	for _, out := range outs {
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	if tr != nil {
		if err := writeTrace(o.trace, o.traceFormat, tr); err != nil {
			return err
		}
	}
	if set != nil {
		if err := writeSeries(o.series, o.seriesFormat, set); err != nil {
			return err
		}
	}
	return nil
}

// profileCPU starts a CPU profile written to path. The returned stop
// ends it and closes the file.
func profileCPU(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileHeap creates path for a heap profile. The returned write
// records the profile — every allocation since the process started, by
// site, and the heap live after a collection — and closes the file.
func profileHeap(path string) (write func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return func() error {
		runtime.GC() // so the live-heap samples are current
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// writeSeries exports the series set to path in the chosen format.
func writeSeries(path, format string, set *series.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "", "csv":
		err = series.WriteCSV(f, set)
	case "openmetrics":
		err = series.WriteOpenMetrics(f, set)
	default:
		err = fmt.Errorf("unknown -series-format %q (want csv or openmetrics)", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTrace exports the trace to path in the chosen format.
func writeTrace(path, format string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := tr.Events()
	switch format {
	case "", "jsonl":
		err = obs.WriteJSONL(f, events)
	case "chrome":
		err = obs.WriteChrome(f, events)
	default:
		err = fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgxnet-tables: ")
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := emit(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}
