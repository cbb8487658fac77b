package core

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testEPC(frames int) *EPC {
	var key [32]byte
	copy(key[:], "test-mee-key-test-mee-key-test-m")
	return NewEPC(frames, key)
}

func TestEPCAllocReadWrite(t *testing.T) {
	e := testEPC(8)
	idx, err := e.Alloc(1, PageREG, 0x1000, PermR|PermW, []byte("hello enclave"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Read(1, idx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:13], []byte("hello enclave")) {
		t.Fatalf("read back %q", got[:13])
	}
	if err := e.Write(1, idx, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, err = e.Read(1, idx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:7], []byte("updated")) {
		t.Fatalf("read back %q", got[:7])
	}
}

func TestEPCCrossEnclaveAccessDenied(t *testing.T) {
	e := testEPC(8)
	idx, err := e.Alloc(1, PageREG, 0, PermR|PermW, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(2, idx); err != ErrEPCAccess {
		t.Fatalf("enclave 2 read of enclave 1 page: err=%v, want ErrEPCAccess", err)
	}
	if err := e.Write(2, idx, []byte("x")); err != ErrEPCAccess {
		t.Fatalf("enclave 2 write: err=%v, want ErrEPCAccess", err)
	}
}

func TestEPCPermissionEnforced(t *testing.T) {
	e := testEPC(8)
	idx, err := e.Alloc(1, PageREG, 0, PermR, []byte("read-only"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, idx, []byte("x")); err != ErrEPCAccess {
		t.Fatalf("write to r-- page: err=%v, want ErrEPCAccess", err)
	}
}

func TestEPCRawReadSeesCiphertextOnly(t *testing.T) {
	e := testEPC(8)
	secret := []byte("the directory authority signing key")
	idx, err := e.Alloc(1, PageREG, 0, PermR, secret)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := e.ReadRaw(idx)
	if !ok {
		t.Fatal("raw read failed")
	}
	if bytes.Contains(raw, secret) {
		t.Fatal("physical memory inspection revealed enclave plaintext")
	}
}

func TestEPCExhaustion(t *testing.T) {
	e := testEPC(2)
	if _, err := e.Alloc(1, PageREG, 0, PermR, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Alloc(1, PageREG, PageSize, PermR, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Alloc(1, PageREG, 2*PageSize, PermR, nil); err != ErrEPCFull {
		t.Fatalf("err=%v, want ErrEPCFull", err)
	}
}

func TestEPCFreeEnclaveReclaims(t *testing.T) {
	e := testEPC(4)
	for i := 0; i < 3; i++ {
		if _, err := e.Alloc(7, PageREG, uint64(i)*PageSize, PermR, nil); err != nil {
			t.Fatal(err)
		}
	}
	if free := e.FreeCount(); free != 1 {
		t.Fatalf("free=%d, want 1", free)
	}
	if n := e.FreeEnclave(7); n != 3 {
		t.Fatalf("freed %d, want 3", n)
	}
	if free := e.FreeCount(); free != 4 {
		t.Fatalf("free=%d, want 4", free)
	}
}

func TestEPCOversizePageRejected(t *testing.T) {
	e := testEPC(2)
	if _, err := e.Alloc(1, PageREG, 0, PermR, make([]byte, PageSize+1)); err == nil {
		t.Fatal("oversize alloc accepted")
	}
	idx, err := e.Alloc(1, PageREG, 0, PermR|PermW, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, idx, make([]byte, PageSize+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestEPCEntryMetadata(t *testing.T) {
	e := testEPC(2)
	idx, err := e.Alloc(9, PageTCS, 0x42000, PermR|PermW, nil)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := e.Entry(idx)
	if !ok || ent.EnclaveID != 9 || ent.Type != PageTCS || ent.LinAddr != 0x42000 {
		t.Fatalf("entry = %+v ok=%v", ent, ok)
	}
	if _, ok := e.Entry(99); ok {
		t.Fatal("out-of-range entry reported valid")
	}
}

// Property: seal followed by unseal is the identity for any content, so
// enclaves always read back exactly what they wrote.
func TestEPCRoundTripProperty(t *testing.T) {
	e := testEPC(64)
	var next uint64
	f := func(content []byte) bool {
		if len(content) > PageSize {
			content = content[:PageSize]
		}
		addr := next * PageSize
		next++
		idx, err := e.Alloc(3, PageREG, addr, PermR|PermW, content)
		if err != nil {
			return err == ErrEPCFull // acceptable exhaustion under quick
		}
		got, err := e.Read(3, idx)
		if err != nil {
			return false
		}
		return bytes.Equal(got[:len(content)], content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPageTypeAndPermsString(t *testing.T) {
	if PageSECS.String() != "SECS" || PageTCS.String() != "TCS" || PageREG.String() != "REG" {
		t.Fatal("PageType strings wrong")
	}
	if PageType(9).String() == "" {
		t.Fatal("unknown PageType must still render")
	}
	if got := (PermR | PermX).String(); got != "r-x" {
		t.Fatalf("perms = %q, want r-x", got)
	}
}

// eagerFrames is the frame allocator the EPC had before its frame table
// grew with use: every frame on one free list from the start, pushed in
// descending order and popped from the top. It keeps only what frame
// numbering depends on.
type eagerFrames struct {
	ents []EPCMEntry
	free []int
}

func newEagerFrames(n int) *eagerFrames {
	m := &eagerFrames{ents: make([]EPCMEntry, n)}
	for i := n - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	return m
}

func (m *eagerFrames) alloc(ent EPCMEntry) (int, error) {
	if len(m.free) == 0 {
		return 0, ErrEPCFull
	}
	idx := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.ents[idx] = ent
	return idx, nil
}

func (m *eagerFrames) release(idx int) {
	m.ents[idx] = EPCMEntry{}
	m.free = append(m.free, idx)
}

func (m *eagerFrames) freeEnclave(owner EnclaveID) int {
	n := 0
	for i, ent := range m.ents {
		if ent.Valid && ent.EnclaveID == owner {
			m.release(i)
			n++
		}
	}
	return n
}

// TestEPCMatchesEagerFreeList drives the EPC and the eager reference
// through one seeded sequence of Alloc, FreeEnclave, EWB, ELDU and SECS
// removal, filling the EPC to ErrEPCFull and draining it again in turn.
// Both must hand out the same frame indices and report the same
// FreeCount, errors and EPCM entries at every step: the sparse table
// changes host memory, never frame numbering.
func TestEPCMatchesEagerFreeList(t *testing.T) {
	const frames, steps = 48, 3200
	e := testEPC(frames)
	ref := newEagerFrames(frames)
	m := NewMeter()
	rng := rand.New(rand.NewPCG(15, 48))
	type evicted struct {
		ep  *EvictedPage
		ent EPCMEntry // the page's entry when evicted, restored by ELDU
	}
	var blobs []evicted
	var addr uint64
	full, afterFull := 0, 0
	for step := 0; step < steps; step++ {
		filling := step/400%2 == 0
		op := rng.IntN(10)
		switch {
		case filling && op < 6, !filling && op < 2: // EADD / demand-zero
			owner, typ := EnclaveID(1+rng.IntN(4)), PageREG
			if rng.IntN(10) == 0 {
				owner, typ = 0, PageSECS
			}
			addr += PageSize
			got, gerr := e.Alloc(owner, typ, addr, PermR|PermW, nil)
			want, werr := ref.alloc(EPCMEntry{Valid: true, Type: typ, EnclaveID: owner, LinAddr: addr, Perms: PermR | PermW})
			if got != want || gerr != werr {
				t.Fatalf("step %d: Alloc = %d, %v; eager list gives %d, %v", step, got, gerr, want, werr)
			}
			if gerr == ErrEPCFull {
				full++
			} else if full > 0 {
				afterFull++
			}
		case op < 7: // EREMOVE of a whole enclave
			owner := EnclaveID(1 + rng.IntN(4))
			if got, want := e.FreeEnclave(owner), ref.freeEnclave(owner); got != want {
				t.Fatalf("step %d: FreeEnclave(%d) = %d, want %d", step, owner, got, want)
			}
		case op < 8: // EREMOVE of a SECS
			idx := rng.IntN(frames + 4)
			e.removeSECS(idx)
			if idx < frames && ref.ents[idx].Valid && ref.ents[idx].Type == PageSECS {
				ref.release(idx)
			}
		case op < 9: // EWB, also of SECS, invalid and never-used frames
			idx := rng.IntN(frames + 4)
			ev, err := e.EWB(m, idx)
			ok := idx < frames && ref.ents[idx].Valid && ref.ents[idx].Type != PageSECS
			if (err == nil) != ok {
				t.Fatalf("step %d: EWB(%d) err = %v, eager entry %+v", step, idx, err, ref.ents[idx%frames])
			}
			if ok {
				blobs = append(blobs, evicted{ev, ref.ents[idx]})
				ref.release(idx)
			}
		default: // ELDU of an outstanding blob
			if len(blobs) == 0 {
				continue
			}
			i := rng.IntN(len(blobs))
			got, err := e.ELDU(m, blobs[i].ep)
			if len(ref.free) == 0 {
				if err != ErrEPCFull {
					t.Fatalf("step %d: ELDU into a full EPC: err = %v", step, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: ELDU: %v", step, err)
			}
			if want, _ := ref.alloc(blobs[i].ent); got != want {
				t.Fatalf("step %d: ELDU took frame %d, eager list gives %d", step, got, want)
			}
			blobs = append(blobs[:i], blobs[i+1:]...)
		}
		if got, want := e.FreeCount(), len(ref.free); got != want {
			t.Fatalf("step %d: FreeCount = %d, want %d", step, got, want)
		}
		for i := 0; i < frames+2; i++ {
			var want EPCMEntry
			if i < frames {
				want = ref.ents[i]
			}
			got, ok := e.Entry(i)
			if got != want || ok != want.Valid {
				t.Fatalf("step %d: Entry(%d) = %+v, %v; want %+v", step, i, got, ok, want)
			}
			if step%100 != 0 {
				continue
			}
			if _, ok := e.ReadRaw(i); ok != want.Valid {
				t.Fatalf("step %d: ReadRaw(%d) ok = %v, want %v", step, i, ok, want.Valid)
			}
		}
	}
	t.Logf("%d allocations hit ErrEPCFull, %d succeeded after the first", full, afterFull)
	if full == 0 || afterFull == 0 {
		t.Fatalf("sequence never went through ErrEPCFull and back (full=%d, allocations after=%d)", full, afterFull)
	}
}

// TestEPCNeverUsedFramesInvalid: a frame the EPC has never handed out
// reads exactly like an invalid one.
func TestEPCNeverUsedFramesInvalid(t *testing.T) {
	e := testEPC(8)
	idx, err := e.Alloc(1, PageREG, 0, PermR|PermW, []byte("used"))
	if err != nil {
		t.Fatal(err)
	}
	for i := idx + 1; i < e.FrameCount(); i++ {
		if ent, ok := e.Entry(i); ok || ent != (EPCMEntry{}) {
			t.Fatalf("never-used frame %d: Entry = %+v, %v", i, ent, ok)
		}
		if _, ok := e.ReadRaw(i); ok {
			t.Fatalf("never-used frame %d: ReadRaw succeeded", i)
		}
		if _, err := e.Read(1, i); err != ErrEPCAccess {
			t.Fatalf("never-used frame %d: Read err = %v", i, err)
		}
		if err := e.Write(1, i, nil); err != ErrEPCAccess {
			t.Fatalf("never-used frame %d: Write err = %v", i, err)
		}
		if _, err := e.EWB(NewMeter(), i); err != ErrEPCAccess {
			t.Fatalf("never-used frame %d: EWB err = %v", i, err)
		}
	}
	if e.FrameCount() != 8 || e.FreeCount() != 7 {
		t.Fatalf("FrameCount = %d, FreeCount = %d; want 8, 7", e.FrameCount(), e.FreeCount())
	}
}
