// Command bench is sgxnet's performance benchmark: the host wall-clock
// cost of the simulator and the modelled SGX cost it reports, end to end
// on four workloads and layer by layer. See README.md.
//
// Usage (bench/run.sh builds the binaries and supplies -tables,
// -golden and -out):
//
//	bash bench/run.sh --workload tor-circuit --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1 -json out.json           # all four workloads
//	bash bench/run.sh -seed 1 -trace 1 -json layers.json
//
// With -workload the run prints every metric as "workload metric value
// unit" and ends with one JSON line: the end-to-end metrics (-trace 0) or
// the per-layer metrics (-trace 1). Without -workload it runs the four
// workloads in order, each in a fresh child process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// gomaxprocs is the parallelism every run uses (the two cores of the
// machine the baseline was measured on). The transcript's -workers 2
// matches it.
const gomaxprocs = 2

// workloadOrder is the order a full run takes the workloads in.
var workloadOrder = []string{"transcript", "tor-circuit", "nf-chain", "sdn-fetch"}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	round    bool   // run one round of a request workload in this process
	requests int    // measured requests per round
	json     string // full result document
	out      string // directory for spans and CLI traces
	tables   string // sgxnet-tables binary
	golden   string // all.golden
}

func (o options) spansPath(workload string) string {
	return filepath.Join(o.out, "spans-"+workload+".jsonl")
}

// value is one reported number.
type value struct {
	Name  string
	Value float64
	Unit  string
}

// result is one workload run.
type result struct {
	workload          string
	o                 options
	attempted, failed int
	e2e               []value // the end_to_end metrics of BENCHMARK.json
	layers            []value // the per_layer metrics (traced run only)
	diag              []value // logged, not gated
	model             []value // modelled metrics of a request workload
}

func newResult(workload string, o options) *result { return &result{workload: workload, o: o} }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func asMap(vs []value) map[string]metricValue {
	if len(vs) == 0 {
		return nil
	}
	m := make(map[string]metricValue, len(vs))
	for _, v := range vs {
		m[v.Name] = metricValue{v.Value, v.Unit}
	}
	return m
}

// doc is the -json document of one workload run.
type doc struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	Trace       bool                   `json:"trace"`
	Params      map[string]any         `json:"params,omitempty"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	Model       map[string]metricValue `json:"model,omitempty"`
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

// params are a workload's fixed parameters, recorded with its results.
func params(workload string) map[string]any {
	if workload == "transcript" {
		return map[string]any{"cli": "sgxnet-tables -workers 2", "min_repetitions": transcriptReps, "startups": startups}
	}
	w := requestWorkloads[workload]
	p := map[string]any{
		"clients": 1, "requests": requests, "warmup_requests": warmupRequests, "setups": setups,
		"rate_req_per_mcycle": w.Rate, "slo_cycles": w.SLO, "slo_quantile": tailQuantile,
	}
	if workload == "nf-chain" {
		p["depth"], p["rules"], p["batch"] = 8, chainRules, chainBatch
	}
	return p
}

func (r *result) doc() doc {
	return doc{
		Workload: r.workload, Seed: r.o.seed, Seconds: r.o.seconds.Seconds(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Trace: r.o.trace, Params: params(r.workload),
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		EndToEnd: asMap(r.e2e), Model: asMap(r.model), Diagnostics: asMap(r.diag), PerLayer: asMap(r.layers),
	}
}

// print writes every number as "workload metric value unit", then the
// result line: the per-layer metrics when traced, else the end-to-end
// ones, which must be exactly those of BENCHMARK.json.
func (r *result) print() error {
	for _, group := range [][]value{r.e2e, r.model, r.diag, r.layers} {
		for _, v := range group {
			fmt.Printf("%s %s %s %s\n", r.workload, v.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		}
	}
	metrics, defs := r.e2e, endToEnd
	if r.o.trace {
		metrics, defs = r.layers, perLayer
	}
	if err := conform(metrics, defs); err != nil && !r.o.round {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, asMap(metrics)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDoc(path string) (doc, error) {
	var d doc
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &d)
	}
	return d, err
}

func runOne(o options) (*result, error) {
	_, ok := requestWorkloads[o.workload]
	switch {
	case o.workload == "transcript":
		return runTranscript(o)
	case !ok:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	case o.round:
		return runRound(o.workload, o)
	}
	return runRequests(o.workload, o)
}

// spawn runs this binary with o's flags, its standard output on stdout
// and its standard error on ours, and waits for it.
func spawn(o options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(int(o.seconds.Seconds())), "-trace", trace, "-round="+strconv.FormatBool(o.round),
		"-out", o.out, "-tables", o.tables, "-golden", o.golden, "-json", o.json)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	return cmd.Run()
}

// runAll runs every workload in a fresh child process of this binary,
// so peak RSS and GC state are per workload, and gathers their
// documents into o.json.
func runAll(o options) error {
	var docs []doc
	for _, w := range workloadOrder {
		co := o
		co.workload, co.json = w, filepath.Join(o.out, w+".json")
		if err := spawn(co, os.Stdout); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		d, err := readDoc(co.json)
		if err != nil {
			return err
		}
		docs = append(docs, d)
	}
	if o.json == "" {
		return nil
	}
	return writeJSON(o.json, map[string]any{"seed": o.seed, "gomaxprocs": gomaxprocs, "trace": o.trace, "workloads": docs})
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (transcript, tor-circuit, nf-chain, sdn-fetch); empty runs all four")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	secs := fs.Int("seconds", 10, "least seconds a run measures: rounds of a request workload, repetitions of the transcript")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and tracing overhead")
	fs.BoolVar(&o.round, "round", false, "run one round of a request workload in this process (used by the run itself)")
	fs.StringVar(&o.json, "json", "", "write the full result document to this file")
	fs.StringVar(&o.out, "out", ".", "directory for spans and CLI traces")
	fs.StringVar(&o.tables, "tables", "", "sgxnet-tables binary built from the checkout")
	fs.StringVar(&o.golden, "golden", "cmd/sgxnet-tables/testdata/all.golden", "the transcript golden")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return o, errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	o.seconds, o.trace, o.requests = time.Duration(*secs)*time.Second, *trace == 1, requests
	if o.tables == "" {
		return o, errors.New("-tables is required (bench/run.sh supplies it)")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	// The CLI children inherit the same parallelism.
	os.Setenv("GOMAXPROCS", strconv.Itoa(gomaxprocs))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if o.workload == "" {
		if err := runAll(o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOne(o)
	if err == nil && o.json != "" {
		err = writeJSON(o.json, res.doc())
	}
	if err == nil {
		err = res.print()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
}
