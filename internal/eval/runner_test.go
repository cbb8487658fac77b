package eval

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// The engine's contract: fan-out changes wall-clock interleaving only.
// Results, their order, and the reported error must be identical at any
// worker count.

func TestMapOrderedMatchesSerial(t *testing.T) {
	fn := func(i int) (int, error) { return i * i, nil }
	want, err := mapOrdered[int](nil, 32, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := mapOrdered(NewRunner(workers), 32, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results diverge from serial: %v vs %v", workers, got, want)
		}
	}
}

func TestMapOrderedFirstErrorByIndex(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	fn := func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errLow
		case 7:
			return 0, errHigh
		}
		return i, nil
	}
	for _, workers := range []int{1, 8} {
		_, err := mapOrdered(NewRunner(workers), 16, fn)
		if err != errLow {
			t.Errorf("workers=%d: want lowest-index error %v, got %v", workers, errLow, err)
		}
	}
}

func TestMapOrderedRunsEveryIndexOnce(t *testing.T) {
	var calls [64]atomic.Uint32
	_, err := mapOrdered(NewRunner(8), len(calls), func(i int) (struct{}, error) {
		calls[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
}

func TestPairMatchesSerial(t *testing.T) {
	fa := func() (string, error) { return "native", nil }
	fb := func() (int, error) { return 42, nil }
	for _, workers := range []int{1, 4} {
		a, b, err := pair(NewRunner(workers), fa, fb)
		if err != nil || a != "native" || b != 42 {
			t.Errorf("workers=%d: got (%q, %d, %v)", workers, a, b, err)
		}
	}
}

// TestFigure3ParallelSerialEquivalence runs a short Figure 3 sweep —
// nested fan-out: points across the pool, a native/SGX pair inside each
// point — serially and at high parallelism, and requires bit-identical
// cycle tallies. This is the meter/scenario determinism claim the golden
// files rest on, checked under -race in CI.
func TestFigure3ParallelSerialEquivalence(t *testing.T) {
	ns := []int{5, 10, 15}
	serial, err := NewRunner(1).figure3(ns)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(8).figure3(ns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel sweep diverges from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

// TestTable4ParallelSerialEquivalence checks the native-vs-SGX pair legs
// in isolation, including every per-AS tally in the run reports.
func TestTable4ParallelSerialEquivalence(t *testing.T) {
	serial, err := NewRunner(1).Table4At(10)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(4).Table4At(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel Table 4 diverges from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}
