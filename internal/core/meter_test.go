package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMeterZeroValue(t *testing.T) {
	var m Meter
	if m.SGX() != 0 || m.Normal() != 0 {
		t.Fatalf("zero meter not zero: %v", m.Snapshot())
	}
	m.ChargeSGX(3)
	m.ChargeNormal(7)
	if m.SGX() != 3 || m.Normal() != 7 {
		t.Fatalf("got %v", m.Snapshot())
	}
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.ChargeSGX(1)
	m.ChargeNormal(1)
	m.SnapshotAndReset()
	m.AddTally(Tally{SGXU: 1})
	if m.SGX() != 0 || m.Normal() != 0 || m.Cycles() != 0 {
		t.Fatal("nil meter must read zero")
	}
	if (m.Snapshot() != Tally{}) {
		t.Fatal("nil meter snapshot must be zero")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.ChargeSGX(1)
				m.ChargeNormal(2)
			}
		}()
	}
	wg.Wait()
	if m.SGX() != 16000 || m.Normal() != 32000 {
		t.Fatalf("lost updates: %v", m.Snapshot())
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter()
	m.ChargeSGX(5)
	m.ChargeNormal(7)
	if got := m.SnapshotAndReset(); got != (Tally{SGXU: 5, Normal: 7}) {
		t.Fatalf("drained %v, want SGX(U)=5 normal=7", got)
	}
	if m.SGX() != 0 || m.Normal() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCyclesFormulaMatchesPaper(t *testing.T) {
	// §5: the challenger enclave consumes 626M cycles:
	// 8 SGX(U) instructions and 348M normal instructions.
	got := CyclesOf(8, 348_000_000)
	want := uint64(8*10_000 + 348_000_000*18/10)
	if got != want {
		t.Fatalf("CyclesOf = %d, want %d", got, want)
	}
	if got < 626_000_000 || got > 627_000_000 {
		t.Fatalf("challenger cycles %d, paper reports ≈626M", got)
	}
	// Remote platform (target w/ DH + quoting): ≈8033M cycles.
	remote := CyclesOf(20, 4_338_000_000) + CyclesOf(17, 125_000_000)
	if remote < 8_020_000_000 || remote > 8_060_000_000 {
		t.Fatalf("remote platform cycles %d, paper reports ≈8033M", remote)
	}
}

func TestTallyArithmetic(t *testing.T) {
	a := Tally{SGXU: 10, Normal: 100}
	b := Tally{SGXU: 4, Normal: 40}
	if d := a.Sub(b); d.SGXU != 6 || d.Normal != 60 {
		t.Fatalf("Sub = %v", d)
	}
	if d := b.Sub(a); d.SGXU != 0 || d.Normal != 0 {
		t.Fatalf("Sub must saturate, got %v", d)
	}
	if s := a.Add(b); s.SGXU != 14 || s.Normal != 140 {
		t.Fatalf("Add = %v", s)
	}
}

func TestTallyPropertySubAddInverse(t *testing.T) {
	f := func(aS, aN, bS, bN uint32) bool {
		a := Tally{SGXU: uint64(aS), Normal: uint64(aN)}
		b := Tally{SGXU: uint64(bS), Normal: uint64(bN)}
		// (a+b) − b == a always (no saturation possible on this path).
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAddTally(t *testing.T) {
	m := NewMeter()
	m.AddTally(Tally{SGXU: 2, Normal: 3})
	m.AddTally(Tally{SGXU: 5, Normal: 7})
	if m.SGX() != 7 || m.Normal() != 10 {
		t.Fatalf("got %v", m.Snapshot())
	}
}

func TestTallyString(t *testing.T) {
	s := Tally{SGXU: 1, Normal: 10}.String()
	if s == "" {
		t.Fatal("empty String")
	}
}

// TestSnapshotAndResetPartitionsExactly drives concurrent chargers
// across repeated period boundaries and requires that the per-period
// tallies plus the final drain sum to exactly what was charged — the
// guarantee a separate snapshot and zeroing could not give (a charge
// landing between the two calls would be silently dropped).
func TestSnapshotAndResetPartitionsExactly(t *testing.T) {
	m := NewMeter()
	const (
		chargers   = 8
		perCharger = 5000
	)
	var wg sync.WaitGroup
	for i := 0; i < chargers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perCharger; j++ {
				m.ChargeSGX(1)
				m.ChargeNormal(3)
			}
		}()
	}
	var periods Tally
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		periods = periods.Add(m.SnapshotAndReset())
		select {
		case <-done:
			periods = periods.Add(m.SnapshotAndReset())
			want := Tally{SGXU: chargers * perCharger, Normal: 3 * chargers * perCharger}
			if periods != want {
				t.Fatalf("periods sum to %+v, want %+v", periods, want)
			}
			if got := m.Snapshot(); got != (Tally{}) {
				t.Fatalf("meter not drained: %+v", got)
			}
			return
		default:
		}
	}
}

func TestSnapshotAndResetNilSafe(t *testing.T) {
	var m *Meter
	if got := m.SnapshotAndReset(); got != (Tally{}) {
		t.Fatalf("nil meter drained to %+v", got)
	}
}

// TestSettleWaitsForRunningCode: a boundary reader that settles sees
// the closing charge of a call whose reply it already has.
func TestSettleWaitsForRunningCode(t *testing.T) {
	m := NewMeter()
	m.Enter()
	go func() {
		time.Sleep(10 * time.Millisecond)
		m.ChargeSGX(1) // the call's closing EEXIT
		m.Exit()
	}()
	m.Settle()
	if m.SGX() != 1 {
		t.Fatalf("settled before the running call's closing charge: SGX(U)=%d", m.SGX())
	}
	var nilMeter *Meter
	nilMeter.Enter()
	nilMeter.Exit()
	nilMeter.Settle()
}
