package sdnctl

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestRunSGXLiveHeap bounds the host memory a live 50-AS deployment
// holds: 51 platforms of the default 1024 EPC frames each, of which
// every platform uses a handful. The EPC's bookkeeping must follow the
// frames in use; sized by configuration it alone is 3.2 MiB here, on
// top of the ~3.8 MiB the deployment holds. No test in this package
// runs in parallel, so the reading is this run's own.
func TestRunSGXLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("50-AS deployment is slow in -short mode")
	}
	const limit = 6 << 20
	deployed(t, canonicalTopo(t, 50), SGXConfig{})
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	t.Logf("live heap of a 50-AS deployment: %.1f MiB", float64(live)/(1<<20))
	if live >= limit {
		t.Fatalf("live heap of a 50-AS deployment = %.1f MiB, want < %d MiB", float64(live)/(1<<20), limit>>20)
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
