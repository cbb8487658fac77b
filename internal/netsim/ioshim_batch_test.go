package netsim

import (
	"testing"

	"sgxnet/internal/core"
	"sgxnet/internal/xcall"
)

// Batched-mode edge cases: the shim's windowed accounting (fixed cost
// once per window, no per-packet boundary SGX) composed with the xcall
// ring's fallbacks, zero-length batches, and an active fault schedule.
// The concurrent pieces run under -race in CI like every other test.

// batchRig wires two hosts, a sink that drains count packets, and a
// data-plane shim on the sender charging the given meter.
func batchRig(t *testing.T, n *Network, meter *core.Meter, count int) (*IOShim, uint32, chan int) {
	t.Helper()
	src, err := n.AddHost("src", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AddHost("dst", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	l, err := dst.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan int, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			received <- 0
			return
		}
		got := 0
		for got < count {
			if _, err := c.Recv(); err != nil {
				break
			}
			got++
		}
		received <- got
	}()
	shim := NewIOShim(src, meter)
	conn, err := src.Dial("dst", "sink")
	if err != nil {
		t.Fatal(err)
	}
	return shim, shim.Adopt(conn), received
}

func TestBatchedModeAmortizesFixedCost(t *testing.T) {
	meter := core.NewMeter()
	shim, id, received := batchRig(t, New(), meter, 8)
	shim.SetBatched(4)
	for i := 0; i < 8; i++ {
		if _, err := shim.OCall("net.send", EncodeSend(id, []byte("pkt"))); err != nil {
			t.Fatal(err)
		}
	}
	tal := meter.Snapshot()
	// Two windows of 4: fixed twice, per-packet eight times, no
	// boundary SGX (the data rides the shared ring).
	want := uint64(2*core.CostIOCallFixed + 8*core.CostIOPerPacket)
	if tal.Normal != want {
		t.Fatalf("normal = %d, want %d", tal.Normal, want)
	}
	if tal.SGXU != 0 {
		t.Fatalf("batched sends charged %d SGX, want 0", tal.SGXU)
	}
	if got := <-received; got != 8 {
		t.Fatalf("sink received %d/8", got)
	}

	// Disabling restores per-call accounting, boundary SGX included.
	shim.SetBatched(1)
	meter.SnapshotAndReset()
	if _, err := shim.OCall("net.send", EncodeSend(id, []byte("pkt"))); err != nil {
		t.Fatal(err)
	}
	tal = meter.Snapshot()
	if tal.Normal != core.CostIOCallFixed+core.CostIOPerPacket || tal.SGXU != core.SGXInstIOPerPacket {
		t.Fatalf("sync send after disable: %+v", tal)
	}
}

func TestBatchedModeZeroLengthBatch(t *testing.T) {
	meter := core.NewMeter()
	shim, id, _ := batchRig(t, New(), meter, 0)
	shim.SetBatched(4)
	// A zero-length net.batch in batched mode charges nothing — there
	// is no call boundary to pay for.
	if _, err := shim.OCall("net.batch", EncodeBatch(id, nil)); err != nil {
		t.Fatal(err)
	}
	if tal := meter.Snapshot(); tal != (core.Tally{}) {
		t.Fatalf("zero-length batch charged %+v", tal)
	}
	// Flushing with no open window is also free.
	shim.FlushBatch()
	if tal := meter.Snapshot(); tal != (core.Tally{}) {
		t.Fatalf("empty flush charged %+v", tal)
	}
}

func TestBatchedModeFlushClosesWindow(t *testing.T) {
	meter := core.NewMeter()
	shim, id, received := batchRig(t, New(), meter, 3)
	shim.SetBatched(4)
	shim.OCall("net.send", EncodeSend(id, []byte("a")))
	shim.OCall("net.send", EncodeSend(id, []byte("b")))
	shim.FlushBatch()
	shim.OCall("net.send", EncodeSend(id, []byte("c")))
	tal := meter.Snapshot()
	// The flush closed the half-full window, so the third send opens a
	// new one: fixed charged twice for three packets.
	want := uint64(2*core.CostIOCallFixed + 3*core.CostIOPerPacket)
	if tal.Normal != want {
		t.Fatalf("normal = %d, want %d", tal.Normal, want)
	}
	if got := <-received; got != 3 {
		t.Fatalf("sink received %d/3", got)
	}
}

// ringShimEnclave builds an enclave bound to an xcall ring in front of a
// batched shim — the full switchless send path, wired as adopters wire
// it through a switchless xcall.Boundary. Binding the ring is all
// that makes the enclave's OCALLs switchless: Env.OCall asks its host
// whether a service crosses, and the ring answers that it accounts for
// the crossing itself. send makes one ECALL whose handler sends n
// packets through Env.OCall; the ECALL itself stays synchronous.
func ringShimEnclave(t *testing.T, n *Network, cfg xcall.Config, count int) (enc *core.Enclave, xb *xcall.Boundary, shim *IOShim, send func(n int) error, received chan int) {
	t.Helper()
	plat, err := core.NewPlatform("ring-src", core.PlatformConfig{EPCFrames: 64, Seed: []byte("ring-src")})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := core.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	enc, err = plat.Launch(&core.Program{
		Name: "ring-sender", Version: "1",
		Handlers: map[string]core.Handler{"send": func(env *core.Env, arg []byte) ([]byte, error) {
			for i := 0; i < int(arg[0]); i++ {
				if _, err := env.OCall("net.send", arg[1:]); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}},
	}, signer)
	if err != nil {
		t.Fatal(err)
	}
	src, err := n.AddHostWithPlatform("src", plat)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AddHost("dst", core.PlatformConfig{EPCFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	l, err := dst.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	received = make(chan int, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			received <- 0
			return
		}
		got := 0
		for got < count {
			if _, err := c.Recv(); err != nil {
				break
			}
			got++
		}
		received <- got
	}()
	shim = NewIOShim(src, enc.Meter())
	xb = xcall.Attach(enc, &cfg)
	enc.BindHost(xb.Host(shim))
	conn, err := src.Dial("dst", "sink")
	if err != nil {
		t.Fatal(err)
	}
	arg := append([]byte{0}, EncodeSend(shim.Adopt(conn), []byte("pkt"))...)
	send = func(n int) error {
		arg[0] = byte(n)
		_, err := enc.Call("send", arg)
		return err
	}
	enc.Meter().SnapshotAndReset()
	return enc, xb, shim, send, received
}

// TestBoundaryOwnsShimWindow: the boundary sets the window of the shim
// it fronts to its batch target (0, unbatched, when synchronous), and
// its Flush closes the open window.
func TestBoundaryOwnsShimWindow(t *testing.T) {
	enc, xb, shim, send, _ := ringShimEnclave(t, New(),
		xcall.Config{Capacity: 16, Batch: 4, SpinBudget: 1000}, 0)
	left := func() int {
		shim.batchMu.Lock()
		defer shim.batchMu.Unlock()
		return shim.batchLeft
	}
	if w := shim.batchWin.Load(); w != 4 {
		t.Fatalf("switchless boundary set window %d, want 4", w)
	}
	if err := send(3); err != nil {
		t.Fatal(err)
	}
	if left() != 1 {
		t.Fatalf("3 sends into a window of 4 left %d", left())
	}
	xb.Flush()
	if left() != 0 {
		t.Fatalf("Flush left %d sends in the window", left())
	}
	xcall.Attach(enc, nil).Host(shim)
	if w := shim.batchWin.Load(); w != 0 {
		t.Fatalf("synchronous boundary set window %d, want 0", w)
	}
}

func TestBatchedRingFullFallback(t *testing.T) {
	// Capacity below the batch target: the ring fills and later sends
	// fall back to synchronous crossings even though the shim stays in
	// batched mode.
	const sends = 6
	enc, xb, _, send, received := ringShimEnclave(t, New(),
		xcall.Config{Capacity: 2, Batch: 8, SpinBudget: 1000}, sends)
	if err := send(sends); err != nil {
		t.Fatal(err)
	}
	st := xb.Stats()
	// Send 1 doorbell, sends 2–3 enqueue, sends 4–6 ring-full.
	if st.ParkedFallbacks != 1 || st.Calls != 2 || st.FullFallbacks != 3 {
		t.Fatalf("stats: %+v", st)
	}
	// Crossings: the ECALL's EENTER/EEXIT, then 4 fallbacks ×
	// EEXIT/ERESUME and no drains yet. Env.OCall charged none of its
	// own: the enqueued sends crossed nothing.
	if tal := enc.Meter().Snapshot(); tal.SGXU != 2+8 {
		t.Fatalf("SGX = %d, want 10", tal.SGXU)
	}
	if got := <-received; got != sends {
		t.Fatalf("sink received %d/%d", got, sends)
	}
}

func TestBatchedModeUnderPartitionMidBatch(t *testing.T) {
	// A partition cuts src↔dst partway through the window. Sends keep
	// succeeding from the enclave's perspective (the loss is silent),
	// charges stay fully deterministic, and the fault engine records
	// the partition drops.
	run := func() (core.Tally, xcall.Stats, uint64) {
		n := New()
		n.SetFaults(NewFaultSchedule(42).AddPartition(Partition{
			A: []string{"src"}, B: []string{"dst"},
			FromMessage: 4, UntilMessage: 1 << 62,
		}))
		enc, xb, _, send, received := ringShimEnclave(t, n,
			xcall.Config{Capacity: 16, Batch: 4, SpinBudget: 1000}, 0)
		if err := send(8); err != nil {
			t.Fatal(err)
		}
		xb.Flush()
		if got := <-received; got != 0 {
			// The sink counts toward 0, so it reports immediately; the
			// partition guarantees no packet is double-counted anyway.
			t.Fatalf("sink received %d", got)
		}
		return enc.Meter().Snapshot(), xb.Stats(), n.Faults().Stats().Partitioned
	}
	t1, s1, drops1 := run()
	t2, s2, drops2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic under partition: %+v/%+v vs %+v/%+v", t1, s1, t2, s2)
	}
	if drops1 != drops2 || drops1 == 0 {
		t.Fatalf("partition drops: %d vs %d", drops1, drops2)
	}
	if s1.Calls == 0 || s1.Drains == 0 {
		t.Fatalf("ring never went switchless: %+v", s1)
	}
}

func TestBatchedModeUnderDropMidBatch(t *testing.T) {
	// DropProb=1 discards every packet mid-flight; the send path (ring
	// accounting + windowed charges) must be oblivious: identical meter
	// tallies with and without the schedule.
	tally := func(faulty bool) core.Tally {
		n := New()
		if faulty {
			n.SetFaults(NewFaultSchedule(7).AddLink(LinkFaults{From: "src", To: "dst", DropProb: 1}))
		}
		enc, xb, _, send, _ := ringShimEnclave(t, n,
			xcall.Config{Capacity: 16, Batch: 4, SpinBudget: 1000}, 0)
		if err := send(9); err != nil {
			t.Fatal(err)
		}
		xb.Flush()
		return enc.Meter().Snapshot()
	}
	clean, dropped := tally(false), tally(true)
	if clean != dropped {
		t.Fatalf("drop schedule changed send-side charges: %+v vs %+v", clean, dropped)
	}
}
