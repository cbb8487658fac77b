package sdnctl

import (
	"runtime"
	"testing"
)

// TestRunSGXLiveHeap bounds the host memory a live 50-AS deployment
// holds: 51 SGX platforms of 4096 EPC frames each, of which every
// platform uses a handful. The EPC's bookkeeping must follow the frames
// in use; sized by configuration it alone is 12.8 MiB here. No test in
// this package runs in parallel, so the reading is this run's own.
func TestRunSGXLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("50-AS deployment is slow in -short mode")
	}
	const limit = 8 << 20
	var live uint64
	_, err := RunSGX(canonicalTopo(t, 50), SGXConfig{After: func(*Controller, []*ASLocal) error {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live = ms.HeapAlloc
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live heap of a 50-AS deployment: %.1f MiB", float64(live)/(1<<20))
	if live >= limit {
		t.Fatalf("live heap of a 50-AS deployment = %.1f MiB, want < %d MiB", float64(live)/(1<<20), limit>>20)
	}
}
