package sdnctl

import (
	"runtime"
	"sync"
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/topo"
	"sgxnet/internal/xcall"
)

// TestSwitchlessQuoteServingAmortizes pins the tentpole claim for the
// quote-serving app: with serve ECALLs and message OCALLs on rings at
// batch 16, the quoting enclave's crossing tally drops ≥2× versus the
// synchronous 17-SGX(U)-per-quote baseline, and the route computation
// itself is unchanged.
func TestSwitchlessQuoteServingAmortizes(t *testing.T) {
	tp, err := topo.Random(topo.Config{N: 8, Seed: 42, PrefJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	syncRep, err := RunSGX(tp, SGXConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if syncRep.QuoteXcall != (xcall.Stats{}) {
		t.Fatalf("sync run produced ring stats: %+v", syncRep.QuoteXcall)
	}
	if syncRep.QuoteServing.SGXU == 0 {
		t.Fatal("sync run reported no quote-serving crossings")
	}
	swlRep, err := RunSGX(tp, SGXConfig{Xcall: &xcall.Config{Batch: 16, SpinBudget: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if swlRep.QuoteServing.SGXU*2 > syncRep.QuoteServing.SGXU {
		t.Fatalf("switchless %d SGX vs sync %d: less than 2× reduction",
			swlRep.QuoteServing.SGXU, syncRep.QuoteServing.SGXU)
	}
	st := swlRep.QuoteXcall
	if st.Calls == 0 || st.Drains == 0 || st.Fallbacks == 0 {
		t.Fatalf("ring counters incomplete: %+v", st)
	}
	// Switchless quote serving must not perturb the measured workload.
	if swlRep.InterDomain != syncRep.InterDomain || swlRep.Attestations != syncRep.Attestations {
		t.Fatalf("steady state changed: %+v vs %+v", swlRep.InterDomain, syncRep.InterDomain)
	}
}

// TestSwitchlessQuoteServingDeterministic pins run-to-run stability of
// the switchless quote tallies.
func TestSwitchlessQuoteServingDeterministic(t *testing.T) {
	tp, err := topo.Random(topo.Config{N: 6, Seed: 7, PrefJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	xc := xcall.Config{Batch: 4, SpinBudget: 4}
	r1, err := RunSGX(tp, SGXConfig{Xcall: &xc})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSGX(tp, SGXConfig{Xcall: &xc})
	if err != nil {
		t.Fatal(err)
	}
	if r1.QuoteServing != r2.QuoteServing || r1.QuoteXcall != r2.QuoteXcall {
		t.Fatalf("nondeterministic: %+v/%+v vs %+v/%+v",
			r1.QuoteServing, r1.QuoteXcall, r2.QuoteServing, r2.QuoteXcall)
	}
}

// TestQuoteServingStableUnderLoad pins the quoting enclave's tally
// against scheduling: the xcall sweep's heaviest quote cell (8 ASes,
// batch 64, spin 64) runs 50 times at GOMAXPROCS 1 and at 2, with
// spinning goroutines competing for every P, and every run must charge
// the same QuoteServing tally. A serve whose closing charges land after
// its requester's attestation returns shows up here as a run that is
// one top-up short, or one top-up long.
func TestQuoteServingStableUnderLoad(t *testing.T) {
	tp, err := topo.Random(topo.Config{N: 8, Seed: 42, PrefJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	xc := xcall.Config{Batch: 64, SpinBudget: 64}
	runs := 50
	if testing.Short() {
		runs = 5
	}
	var want core.Tally
	for _, procs := range []int{1, 2} {
		func() {
			defer spin(procs)()
			for i := 0; i < runs; i++ {
				rep, err := RunSGX(tp, SGXConfig{Xcall: &xc})
				if err != nil {
					t.Fatal(err)
				}
				if want == (core.Tally{}) {
					want = rep.QuoteServing
				} else if rep.QuoteServing != want {
					t.Errorf("GOMAXPROCS %d run %d: QuoteServing %+v, want %+v", procs, i, rep.QuoteServing, want)
				}
			}
		}()
	}
}

// spin sets GOMAXPROCS to procs and keeps procs+1 goroutines spinning
// against the code under test. The returned func stops them and
// restores GOMAXPROCS.
func spin(procs int) (stop func()) {
	prev := runtime.GOMAXPROCS(procs)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < procs+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}
