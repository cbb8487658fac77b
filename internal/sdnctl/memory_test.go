package sdnctl

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"sgxnet/internal/netsim"
)

// TestRunSGXLiveHeap bounds the host memory a live 50-AS deployment
// holds: 51 platforms of the default 1024 EPC frames each, of which
// every platform uses a handful. The deployment holds ~1.7 MiB when the
// EPC's bookkeeping follows the frames in use (sized by configuration,
// it alone is 3.2 MiB here), each frame holds only its page's content
// (whole 4 KiB frames add ~1.5 MiB) and a quote connection leaves both
// shims when its attestation ends (held, they add ~0.6 MiB). No test in
// this package runs in parallel, so the reading is this run's own.
func TestRunSGXLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("50-AS deployment is slow in -short mode")
	}
	const limit = 5 << 19 // 2.5 MiB
	deployed(t, canonicalTopo(t, 50), SGXConfig{})
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	t.Logf("live heap of a 50-AS deployment: %.1f MiB", float64(live)/(1<<20))
	if live >= limit {
		t.Fatalf("live heap of a 50-AS deployment = %.1f MiB, want < %.1f MiB", float64(live)/(1<<20), float64(limit)/(1<<20))
	}
}

// shimConns counts the connections a shim holds. ConnIDs are handed
// out from 1 upward and never reused, so probing the first 4096 finds
// every one a small deployment adopts.
func shimConns(s *netsim.IOShim) int {
	n := 0
	for id := uint32(1); id <= 4096; id++ {
		if _, ok := s.Conn(id); ok {
			n++
		}
	}
	return n
}

// TestDeployReleasesQuoteConnections: once the deployment has attested
// and run, the controller's shim holds each AS's session connection and
// nothing else, and the quoting agent's shim holds none: a quote
// connection is dropped by both shims when its exchange ends. The
// agent's serve returns once the requester has closed its end, so its
// shim is polled for.
func TestDeployReleasesQuoteConnections(t *testing.T) {
	const ases = 6
	d, _ := deployed(t, canonicalTopo(t, ases), SGXConfig{})
	if got := shimConns(d.Controller.Shim); got != ases {
		t.Fatalf("controller shim holds %d connections for %d ASes, want %d", got, ases, ases)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got := shimConns(d.agent.Shim)
		if got == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quoting agent's shim still holds %d connections, want 0", got)
		}
	}
}

// TestDeployCloseReleasesEverything: Close leaves nothing of a
// deployment behind. Every goroutine it started returns within a
// deadline, polled for, and its network refuses new connections.
func TestDeployCloseReleasesEverything(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	d, err := Deploy(canonicalTopo(t, 6), SGXConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		d.Close()
		t.Fatal(err)
	}
	host := d.Locals[0].Host
	d.Close()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			var stacks bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines still running, want %d:\n%s", runtime.NumGoroutine(), goroutines, &stacks)
		}
		time.Sleep(time.Millisecond)
	}
	if c, err := host.Dial("controller", ControllerService); err == nil {
		c.Close()
		t.Fatal("Dial on a closed deployment's network succeeded")
	}
}
