package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite all.golden and fig3-csv.golden")

func golden(name string) string { return filepath.Join("testdata", name+".golden") }

// render runs sgxnet-tables with args and returns its transcript.
func render(t *testing.T, args ...string) []byte {
	t.Helper()
	o, err := parse(flag.NewFlagSet("sgxnet-tables", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := emit(&b, o); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// readGolden returns a golden file's bytes, rewriting it from got first
// under -update.
func readGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden(name), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden(name))
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	return want
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end>"
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("first difference at line %d:\n got: %q\nwant: %q", i+1, line(g, i), line(w, i))
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// maxHeapLeft is how much the live heap may grow across a run that has
// torn down every deployment it made.
const maxHeapLeft = 4 << 20

// checkReleased fails t unless a run that started with goroutines
// running and heap live has released what it deployed: its goroutines
// exit within a deadline, polled for, and the live heap grows by less
// than maxHeapLeft.
func checkReleased(t *testing.T, goroutines int, heap int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			var stacks bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines still running, want %d:\n%s", runtime.NumGoroutine(), goroutines, &stacks)
		}
		time.Sleep(time.Millisecond)
	}
	if grown := liveHeap() - heap; grown >= maxHeapLeft {
		t.Errorf("live heap grew by %.1f MiB, want < %d MiB", float64(grown)/(1<<20), maxHeapLeft>>20)
	}
}

// TestGolden is the transcript's determinism gate, driven by the
// sections table. The default run at -workers 8 must equal all.golden
// byte for byte. Then each section but the extras, selected alone by
// its own flag, must render the same bytes at -workers 1 and at
// -workers 8, and those bytes must be its slice of all.golden: the
// slices, taken in table order, tile the whole file. -workers 8
// oversubscribes small machines on purpose, and CI runs this under
// -race, so it also shakes out data races in the fan-out. The default
// run and each section must also leave no goroutine running and no
// deployment reachable behind them (checkReleased).
func TestGolden(t *testing.T) {
	goroutines, heap := runtime.NumGoroutine(), liveHeap()
	all := render(t, "-workers", "8")
	want := readGolden(t, "all", all)
	if !bytes.Equal(all, want) {
		t.Fatalf("default output diverges from %s (rerun with -update if intended)\n%s",
			golden("all"), firstDiff(all, want))
	}
	checkReleased(t, goroutines, heap)
	rest := want
	for _, s := range sections {
		if s.extra {
			continue
		}
		flags := []string{"-" + s.flag}
		if s.arg != 0 {
			flags = append(flags, strconv.Itoa(s.arg))
		}
		var n int
		ok := t.Run(s.name, func(t *testing.T) {
			goroutines, heap := runtime.NumGoroutine(), liveHeap()
			serial := render(t, append(flags, "-workers", "1")...)
			parallel := render(t, append(flags, "-workers", "8")...)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("%v at -workers 8 diverges from -workers 1\n%s", flags, firstDiff(parallel, serial))
			}
			if !bytes.HasPrefix(rest, serial) {
				t.Fatalf("%v is not its slice of %s\n%s", flags, golden("all"),
					firstDiff(serial, rest[:min(len(rest), len(serial))]))
			}
			n = len(serial)
			checkReleased(t, goroutines, heap)
		})
		if !ok {
			return // the remaining slices cannot be located
		}
		rest = rest[n:]
	}
	if len(rest) > 0 {
		t.Errorf("%s ends with %d bytes no section renders", golden("all"), len(rest))
	}
}

// TestParallelSerialEquivalence renders the default run strictly
// serially (-workers 1). It must equal all.golden, which TestGolden
// holds the -workers 8 run to, so the whole transcript is the same at
// any worker count, not just each section alone.
func TestParallelSerialEquivalence(t *testing.T) {
	if *update {
		t.Skip("goldens being rewritten")
	}
	if testing.Short() {
		t.Skip("renders the full transcript; slow under -short")
	}
	serial := render(t, "-workers", "1")
	if want := readGolden(t, "all", serial); !bytes.Equal(serial, want) {
		t.Errorf("-workers 1 transcript diverges from %s\n%s", golden("all"), firstDiff(serial, want))
	}
}

// TestGoldenCSV covers the one output shape all.golden cannot: the CSV
// rendering of Figure 3's points.
func TestGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats the Figure 3 sweep; slow under -short")
	}
	got := render(t, "-fig", "3", "-csv")
	if want := readGolden(t, "fig3-csv", got); !bytes.Equal(got, want) {
		t.Errorf("CSV output diverges from %s (rerun with -update if intended)\n%s",
			golden("fig3-csv"), firstDiff(got, want))
	}
}

// TestMemProfile: -memprofile writes a heap profile that decompresses
// and names its allocation samples, and leaves the transcript as it is.
func TestMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	got := render(t, "-table", "1", "-memprofile", path)
	if want := render(t, "-table", "1"); !bytes.Equal(got, want) {
		t.Fatalf("-memprofile changed the output\n%s", firstDiff(got, want))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a gzip-compressed profile: %v", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, name := range []string{"alloc_space", "inuse_space"} {
		if !bytes.Contains(raw, []byte(name)) {
			t.Errorf("heap profile (%d bytes) does not name %q", len(raw), name)
		}
	}
}

// TestCPUProfile: -cpuprofile writes a profile (gzip-compressed protobuf)
// and leaves the transcript as it is.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	got := render(t, "-table", "1", "-cpuprofile", path)
	if want := render(t, "-table", "1"); !bytes.Equal(got, want) {
		t.Fatalf("-cpuprofile changed the output\n%s", firstDiff(got, want))
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
		t.Fatalf("%s is not a gzip-compressed profile (%d bytes)", path, len(b))
	}
}
