package xcall

import (
	"fmt"
	"sync"
	"testing"

	"sgxnet/internal/core"
)

// testEnclave launches a minimal enclave with an echo entry point and
// an echo host, returns it with its launch cost already drained.
func testEnclave(t *testing.T) *core.Enclave {
	t.Helper()
	plat, err := core.NewPlatform("xcall-test", core.PlatformConfig{Seed: []byte("xcall-test")})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	prog := &core.Program{
		Name:    "xcall-echo",
		Version: "1.0",
		Handlers: map[string]core.Handler{
			"echo": func(env *core.Env, arg []byte) ([]byte, error) {
				return append([]byte(nil), arg...), nil
			},
			"nop": func(env *core.Env, arg []byte) ([]byte, error) {
				return nil, nil
			},
			// relay asks the bound host to echo arg: one Env.OCall.
			"relay": func(env *core.Env, arg []byte) ([]byte, error) {
				return env.OCall("host.echo", arg)
			},
		},
	}
	enc, err := plat.Launch(prog, signer)
	if err != nil {
		t.Fatal(err)
	}
	enc.BindHost(core.HostFunc(func(service string, arg []byte) ([]byte, error) {
		return append([]byte("host:"), arg...), nil
	}))
	enc.Meter().SnapshotAndReset()
	return enc
}

func TestCallRingBatchesAndFallsBack(t *testing.T) {
	enc := testEnclave(t)
	r := NewCallRing(enc, Config{Capacity: 8, Batch: 4, SpinBudget: 100})

	// First call: worker parked (never launched) → doorbell fallback,
	// a full synchronous EENTER/EEXIT pair.
	out, err := r.Call("echo", []byte("a"))
	if err != nil || string(out) != "a" {
		t.Fatalf("call 1: %q, %v", out, err)
	}
	if got := enc.Meter().Snapshot().SGXU; got != 2 {
		t.Fatalf("fallback charged %d SGX, want 2", got)
	}

	// Next four calls: three enqueues, then the fourth fills the batch
	// and drains — one amortized crossing for the lot.
	for i := 0; i < 4; i++ {
		if _, err := r.Call("echo", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tal := enc.Meter().Snapshot()
	wantSGX := uint64(2 + core.SGXInstRingDrain)
	if tal.SGXU != wantSGX {
		t.Fatalf("after batch: %d SGX, want %d", tal.SGXU, wantSGX)
	}
	wantNormal := uint64(4*(core.CostRingEnqueue+core.CostRingSpinPoll) + 4*core.CostRingDequeue)
	if tal.Normal != wantNormal {
		t.Fatalf("after batch: %d normal, want %d", tal.Normal, wantNormal)
	}
	st := r.Stats()
	if st.Calls != 4 || st.Drains != 1 || st.Drained != 4 || st.Fallbacks != 1 || st.ParkedFallbacks != 1 || st.Wakes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCallRingFullFallsBack(t *testing.T) {
	enc := testEnclave(t)
	// Capacity below the batch target: the ring fills before a batch
	// assembles and further submissions fall back synchronously.
	r := NewCallRing(enc, Config{Capacity: 2, Batch: 8, SpinBudget: 1000})
	for i := 0; i < 5; i++ {
		if _, err := r.Call("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	// Call 1 doorbell, calls 2–3 enqueue, calls 4–5 ring-full.
	if st.ParkedFallbacks != 1 || st.Calls != 2 || st.FullFallbacks != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxOccupancy != 2 {
		t.Fatalf("max occupancy %d, want 2", st.MaxOccupancy)
	}
}

func TestSpinBudgetDrainsPartialAndParks(t *testing.T) {
	enc := testEnclave(t)
	r := NewCallRing(enc, Config{Capacity: 64, Batch: 16, SpinBudget: 2})
	// Call 1: doorbell. Calls 2–4: enqueue; at call 4 the worker has
	// polled 3 > 2 times since its last drain, so it drains the 3
	// stragglers and parks. Call 5: doorbell again.
	for i := 0; i < 5; i++ {
		if _, err := r.Call("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Drains != 1 || st.Drained != 3 || st.Parks != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ParkedFallbacks != 2 || st.Wakes != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFlushDrainsRemainderThenIsFree(t *testing.T) {
	enc := testEnclave(t)
	r := NewCallRing(enc, Config{Capacity: 8, Batch: 8, SpinBudget: 100})
	r.Call("echo", nil) // doorbell
	r.Call("echo", nil) // enqueue
	r.Call("echo", nil) // enqueue
	before := enc.Meter().Snapshot()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	after := enc.Meter().Snapshot()
	if after.SGXU-before.SGXU != core.SGXInstRingDrain {
		t.Fatalf("flush charged %d SGX, want %d", after.SGXU-before.SGXU, core.SGXInstRingDrain)
	}
	st := r.Stats()
	if st.Drains != 1 || st.Drained != 2 || st.Parks != 1 {
		t.Fatalf("stats after flush: %+v", st)
	}
	// A second flush (worker already parked, ring empty) is free.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := enc.Meter().Snapshot(); got != after {
		t.Fatalf("empty flush charged: %+v vs %+v", got, after)
	}
	if st2 := r.Stats(); st2 != st {
		t.Fatalf("empty flush changed stats: %+v vs %+v", st2, st)
	}
}

func TestOversizedArgFallsBack(t *testing.T) {
	enc := testEnclave(t)
	r := NewCallRing(enc, Config{Capacity: 8, Batch: 8, SpinBudget: 100})
	r.Call("echo", nil) // doorbell: worker hot
	big := make([]byte, MaxArgBytes+1)
	if _, err := r.Call("echo", big); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.FullFallbacks != 1 {
		t.Fatalf("oversized arg not a slot fallback: %+v", st)
	}
}

// TestSwitchlessCallAllocs: a switchless call queues a count, not a
// copy of its call, so a warm call of a no-op handler allocates at most
// the handler's Env, drains included.
func TestSwitchlessCallAllocs(t *testing.T) {
	enc := testEnclave(t)
	r := NewCallRing(enc, Config{Batch: 64})
	arg := make([]byte, 200)
	call := func() {
		if _, err := r.Call("nop", arg); err != nil {
			t.Fatal(err)
		}
	}
	call() // doorbell: worker hot
	if allocs := testing.AllocsPerRun(6400, call); allocs > 1 {
		t.Fatalf("warm switchless call made %v allocations, want at most 1", allocs)
	}
	if st := r.Stats(); st.Fallbacks != 1 || st.Drains != 100 {
		t.Fatalf("calls were not switchless: %+v", st)
	}
}

func TestOCallRing(t *testing.T) {
	enc := testEnclave(t)
	host := core.HostFunc(func(service string, arg []byte) ([]byte, error) {
		return []byte(service), nil
	})
	r := newOCallRing(enc, host, Config{Capacity: 8, Batch: 2, SpinBudget: 100})

	// Doorbell fallback pays the synchronous EEXIT/ERESUME pair.
	out, err := r.OCall("net.send", []byte("x"))
	if err != nil || string(out) != "net.send" {
		t.Fatalf("ocall 1: %q, %v", out, err)
	}
	if got := enc.Meter().Snapshot().SGXU; got != 2 {
		t.Fatalf("ocall fallback charged %d SGX, want 2", got)
	}
	// Two more: second completes a batch of 2 → one amortized drain.
	r.OCall("net.send", nil)
	r.OCall("net.send", nil)
	tal := enc.Meter().Snapshot()
	if want := uint64(2 + core.SGXInstRingDrain); tal.SGXU != want {
		t.Fatalf("%d SGX, want %d", tal.SGXU, want)
	}
	if st := r.snapshot(); st.Calls != 2 || st.Drains != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRingDeterminism(t *testing.T) {
	run := func() (core.Tally, Stats) {
		enc := testEnclave(t)
		r := NewCallRing(enc, Config{Capacity: 16, Batch: 4, SpinBudget: 6})
		for i := 0; i < 41; i++ {
			if _, err := r.Call("echo", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		return enc.Meter().Snapshot(), r.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %+v/%+v vs %+v/%+v", t1, s1, t2, s2)
	}
	if s1.Fallbacks == 0 || s1.Drains == 0 {
		t.Fatalf("sequence exercised nothing: %+v", s1)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Capacity != 64 || c.Batch != 16 || c.SpinBudget != 64 {
		t.Fatalf("defaults: %+v", c)
	}
	if got := (Config{Capacity: 1 << 20}).WithDefaults().Capacity; got != MaxBatch {
		t.Fatalf("capacity clamp: %d", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Calls: 1, Drains: 2, MaxOccupancy: 3}
	b := Stats{Calls: 10, Fallbacks: 5, MaxOccupancy: 7}
	sum := a.Add(b)
	if sum.Calls != 11 || sum.Drains != 2 || sum.Fallbacks != 5 || sum.MaxOccupancy != 7 {
		t.Fatalf("sum: %+v", sum)
	}
}

// TestSwitchlessCheaperThanSync pins the headline property: at batch
// ≥16 the ring cuts modeled crossing work by well over 2×.
func TestSwitchlessCheaperThanSync(t *testing.T) {
	const n = 64
	sync := testEnclave(t)
	for i := 0; i < n; i++ {
		if _, err := sync.Call("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	swl := testEnclave(t)
	r := NewCallRing(swl, Config{Capacity: 64, Batch: 16, SpinBudget: 64})
	for i := 0; i < n; i++ {
		if _, err := r.Call("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	syncSGX, swlSGX := sync.Meter().Snapshot().SGXU, swl.Meter().Snapshot().SGXU
	if swlSGX*2 > syncSGX {
		t.Fatalf("switchless %d SGX not ≥2× under sync %d", swlSGX, syncSGX)
	}
}

func ExampleCallRing() {
	plat, _ := core.NewPlatform("example", core.PlatformConfig{Seed: []byte("example")})
	signer, _ := core.NewSigner()
	enc, _ := plat.Launch(&core.Program{
		Name: "example", Version: "1.0",
		Handlers: map[string]core.Handler{
			"double": func(env *core.Env, arg []byte) ([]byte, error) {
				return append(arg, arg...), nil
			},
		},
	}, signer)
	r := NewCallRing(enc, Config{Batch: 4})
	out, _ := r.Call("double", []byte("ab"))
	fmt.Println(string(out))
	// Output: abab
}

// countingProbe tallies observations by kind (concurrency-safe: rings
// may be driven from multiple goroutines).
type countingProbe struct {
	mu     sync.Mutex
	counts map[string]uint64
}

func (p *countingProbe) Observe(kind string, n uint64) {
	p.mu.Lock()
	p.counts[kind] = p.counts[kind] + n
	p.mu.Unlock()
}

func (p *countingProbe) get(kind string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[kind]
}

// TestCallFallbackFailureFiresNoProbes is the validate-then-charge
// regression test for CallRing.Call: a fallback whose synchronous call
// fails must leave no xcall probe observations behind — only successful
// fallbacks are real crossings worth accounting.
func TestCallFallbackFailureFiresNoProbes(t *testing.T) {
	enc := testEnclave(t)
	probe := &countingProbe{counts: map[string]uint64{}}
	enc.Platform().SetProbe(probe)
	r := NewCallRing(enc, Config{Capacity: 8, Batch: 4, SpinBudget: 100})

	// First submission is the doorbell fallback; the unknown entry point
	// makes the synchronous call fail.
	if _, err := r.Call("no-such-entry", nil); err == nil {
		t.Fatal("unknown entry point succeeded")
	}
	for _, kind := range []string{KindFallback, KindFallbackFull, KindFallbackParked, KindWake} {
		if got := probe.get(kind); got != 0 {
			t.Fatalf("failed fallback fired %s ×%d, want none", kind, got)
		}
	}

	// A successful fallback (the ring re-parked after Flush) still fires
	// them — the control that keeps this test meaningful.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Call("echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if probe.get(KindFallback) != 1 || probe.get(KindFallbackParked) != 1 {
		t.Fatalf("successful fallback not observed: %+v", probe.counts)
	}
}

// TestOCallFallbackFailureChargesNothing: an OCall fallback whose host
// service fails must charge no synchronous crossing and fire no probes.
func TestOCallFallbackFailureChargesNothing(t *testing.T) {
	enc := testEnclave(t)
	probe := &countingProbe{counts: map[string]uint64{}}
	enc.Platform().SetProbe(probe)
	refuse := core.HostFunc(func(service string, arg []byte) ([]byte, error) {
		return nil, fmt.Errorf("host refuses %q", service)
	})
	r := newOCallRing(enc, refuse, Config{Capacity: 8, Batch: 4, SpinBudget: 100})
	enc.Meter().SnapshotAndReset()

	if _, err := r.OCall("svc", nil); err == nil {
		t.Fatal("refusing host succeeded")
	}
	if tal := enc.Meter().Snapshot(); tal.SGXU != 0 || tal.Normal != 0 {
		t.Fatalf("failed OCall fallback charged %+v, want zero", tal)
	}
	for _, kind := range []string{KindFallback, KindFallbackParked, core.KindEEXIT, core.KindERESUME, core.KindEnclaveOCall} {
		if got := probe.get(kind); got != 0 {
			t.Fatalf("failed OCall fallback fired %s ×%d, want none", kind, got)
		}
	}
}
