package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// The transcript workload runs the sgxnet-tables CLI, built once from
// the checkout, exactly as a user does: the default run at -workers 2,
// every repetition compared byte for byte with all.golden.

const (
	// transcriptReps is the least number of timed repetitions.
	transcriptReps = 3
	// startups is how many CLI start-ups (Table 2, a few ms of work) make up
	// the transcript's setup_s.
	startups = 9
)

// cliRun is one finished CLI process.
type cliRun struct {
	wall, cpu time.Duration
	rssMiB    float64
	out       []byte
}

// runCLI runs the tables binary with args and captures its output and
// resource use.
func runCLI(tables string, args ...string) (cliRun, error) {
	cmd := exec.Command(tables, args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(t0), out: out.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMiB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		return r, fmt.Errorf("sgxnet-tables %s: %w: %s", strings.Join(args, " "), err, stderr.String())
	}
	return r, nil
}

// firstDiff describes the first line where got differs from want.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if i >= len(g) || i >= len(w) || gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "identical"
}

// checkTranscript runs the CLI with args and reports whether its output
// equals want, logging the first differing line when it does not.
func checkTranscript(o options, what string, want []byte, args ...string) (cliRun, bool) {
	r, err := runCLI(o.tables, args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		return r, false
	}
	if !bytes.Equal(r.out, want) {
		fmt.Fprintf(os.Stderr, "%s differs from all.golden at %s\n", what, firstDiff(r.out, want))
		return r, false
	}
	return r, true
}

func runTranscript(o options) (*result, error) {
	golden, err := os.ReadFile(o.golden)
	if err != nil {
		return nil, err
	}
	res := newResult("transcript", o)
	var setupS []float64
	for k := 0; k < startups; k++ {
		r, err := runCLI(o.tables, "-table", "2")
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, r.wall.Seconds())
	}

	var walls, cpus, rss []float64
	t0 := time.Now()
	for len(walls) < transcriptReps || time.Since(t0) < o.seconds {
		r, ok := checkTranscript(o, fmt.Sprintf("repetition %d", len(walls)+1), golden, "-workers", "2")
		res.attempted++
		if !ok {
			res.failed++
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMiB)
	}
	res.e2e = []value{{"setup_s", median(setupS), "s"}, {"peak_rss_mb", median(rss), "MiB"}}
	// One operation is one whole transcript.
	res.diag = []value{
		{"host_p50_us", median(walls) * 1e6, "us"},
		{"ops_per_s", 1 / median(walls), "1/s"},
		{"cpu_us_per_op", median(cpus) * 1e6, "us"},
		{"transcript_s", median(walls), "s"},
		{"transcript_cpu_s", median(cpus), "s"},
		{"repetitions", float64(len(walls)), "count"},
	}
	if o.trace {
		if err := traceTranscript(o, golden, median(walls), res); err != nil {
			return nil, err
		}
	}
	res.diag = append(res.diag, value{"fail_frac", float64(res.failed) / float64(res.attempted), "ratio"})
	return res, nil
}

// traceTranscript makes the traced run's per-layer numbers: one more
// repetition with the CLI's own trace on, whose probe registry gives the
// per-operation counts, then the ladder. The spans are the benchmark's
// own, around each CLI call.
func traceTranscript(o options, golden []byte, untracedWall float64, res *result) error {
	tr := newTracer()
	tracePath := filepath.Join(o.out, "transcript-trace.jsonl")
	id := tr.begin("transcript.traced", 0, 0)
	r, ok := checkTranscript(o, "traced repetition", golden, "-workers", "2", "-trace", tracePath)
	tr.end(id)
	res.attempted++
	if !ok {
		res.failed++
	}
	c, err := traceCounters(tracePath)
	if err != nil {
		return err
	}
	layers, checks, bad, err := ladder(o, tr)
	if err != nil {
		return err
	}
	res.attempted += checks
	res.failed += bad
	res.layers = append(layers, perOpCounters(c, 1)...)
	res.layers = append(res.layers, value{"obs.trace_overhead_pct", (r.wall.Seconds()/untracedWall - 1) * 100, "%"})
	return tr.write(o.spansPath("transcript"))
}

// traceCounters reads the probe-registry counters from the "metrics"
// track of a CLI trace.
func traceCounters(path string) (counters, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := counters{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, []byte(`"track":"metrics"`)) {
			continue
		}
		var ev struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		c[ev.Name] = ev.Value
	}
	return c, sc.Err()
}
