package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
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

// fullPageEPC is a whole-page model of EPC contents: every valid frame
// holds a whole sealed page, and EWB encrypts that page. It numbers
// frames with eagerFrames and derives the MEE keystream, the paging key
// and the EWB blob layout itself, sharing no code with the EPC.
type fullPageEPC struct {
	*eagerFrames
	key   [32]byte
	pages [][]byte // per frame: PageSize sealed bytes, nil when free
	seq   map[versionKey]uint64
}

func newFullPageEPC(frames int, key [32]byte) *fullPageEPC {
	return &fullPageEPC{eagerFrames: newEagerFrames(frames), key: key,
		pages: make([][]byte, frames), seq: make(map[versionKey]uint64)}
}

// sealPage XORs page with frame idx's 64-byte keystream.
func (r *fullPageEPC) sealPage(idx int, page []byte) {
	for i := range page {
		j := i % 64
		page[i] ^= r.key[j%32] ^ byte(idx>>uint(8*(j%4))) ^ byte(j*131)
	}
}

func (r *fullPageEPC) put(idx int, content []byte) {
	page := make([]byte, PageSize)
	copy(page, content)
	r.sealPage(idx, page)
	r.pages[idx] = page
}

func (r *fullPageEPC) alloc(ent EPCMEntry, content []byte) (int, error) {
	idx, err := r.eagerFrames.alloc(ent)
	if err == nil {
		r.put(idx, content)
	}
	return idx, err
}

func (r *fullPageEPC) read(idx int) []byte {
	page := bytes.Clone(r.pages[idx])
	r.sealPage(idx, page)
	return page
}

// ewb returns the blob of evicting frame idx and frees the frame.
func (r *fullPageEPC) ewb(idx int) []byte {
	ent := r.ents[idx]
	ph := sha256.Sum256(append([]byte("sgxnet-paging-key"), r.key[:]...))
	vk := versionKey{ent.EnclaveID, ent.LinAddr}
	var nb [24]byte
	binary.LittleEndian.PutUint64(nb[:8], uint64(ent.EnclaveID))
	binary.LittleEndian.PutUint64(nb[8:16], ent.LinAddr)
	binary.LittleEndian.PutUint64(nb[16:], r.seq[vk])
	r.seq[vk]++
	nm := hmac.New(sha256.New, ph[:])
	nm.Write([]byte("sgxnet-ewb-nonce"))
	nm.Write(nb[:])
	nonce := nm.Sum(nil)[:16]

	blob := append([]byte(nil), nonce...)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(ent.EnclaveID))
	blob = binary.LittleEndian.AppendUint64(blob, ent.LinAddr)
	blob = append(blob, byte(ent.Type), byte(ent.Perms))
	block, _ := aes.NewCipher(ph[:16])
	ct := make([]byte, PageSize)
	cipher.NewCTR(block, nonce).XORKeyStream(ct, r.read(idx))
	blob = append(blob, ct...)
	mac := hmac.New(sha256.New, ph[16:])
	mac.Write(blob)
	r.release(idx)
	r.pages[idx] = nil
	return mac.Sum(blob)
}

func (r *fullPageEPC) freeEnclave(owner EnclaveID) int {
	for i, ent := range r.ents {
		if ent.Valid && ent.EnclaveID == owner {
			r.pages[i] = nil
		}
	}
	return r.eagerFrames.freeEnclave(owner)
}

// TestEPCMatchesFullPageSealing drives the EPC and the full-page
// reference through one seeded sequence of Alloc, Write, EWB, ELDU and
// FreeEnclave with page contents of every shape: nil, empty, short,
// ending in zero bytes, all zero, and a full 4096 bytes with and
// without a zero tail. Read and ReadRaw of the frame each step touched,
// and of every frame every 20 steps, and every EWB blob, must be
// byte-identical to the reference's, and every ELDU must bring back the
// evicted page: keeping only a frame's content changes host memory,
// never what the model hands out.
func TestEPCMatchesFullPageSealing(t *testing.T) {
	const frames, steps = 16, 1500
	e := testEPC(frames)
	ref := newFullPageEPC(frames, e.sealKey)
	m := NewMeter()
	rng := rand.New(rand.NewPCG(18, 4096))
	fill := func(c []byte) {
		for i := 0; i < len(c); i += 8 {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			copy(c[i:], w[:])
		}
	}
	content := func() []byte {
		var c []byte
		switch rng.IntN(7) {
		case 0:
			return nil
		case 1:
			return []byte{}
		case 2: // short
			c = make([]byte, 1+rng.IntN(300))
		case 3: // full page, last byte non-zero
			c = make([]byte, PageSize)
		case 4: // all zero
			return make([]byte, rng.IntN(PageSize+1))
		default: // ends in zero bytes, full page or not
			c = make([]byte, 1+rng.IntN(PageSize))
			fill(c)
			clear(c[len(c)-1-rng.IntN(len(c)):])
			return c
		}
		fill(c)
		c[len(c)-1] |= 1
		return c
	}
	type evicted struct {
		ep   *EvictedPage
		ent  EPCMEntry
		page []byte // plaintext when evicted
	}
	var blobs []evicted
	var addr uint64
	full, reloads := 0, 0
	for step := 0; step < steps; step++ {
		touched := -1
		switch op := rng.IntN(10); {
		case op < 4: // EADD
			owner := EnclaveID(1 + rng.IntN(3))
			addr += PageSize
			c := content()
			ent := EPCMEntry{Valid: true, Type: PageREG, EnclaveID: owner, LinAddr: addr, Perms: PermR | PermW}
			got, gerr := e.Alloc(owner, PageREG, addr, PermR|PermW, c)
			want, werr := ref.alloc(ent, c)
			if got != want || gerr != werr {
				t.Fatalf("step %d: Alloc = %d, %v; reference %d, %v", step, got, gerr, want, werr)
			}
			if gerr == ErrEPCFull {
				full++
			}
			touched = got
		case op < 6: // write a live frame
			idx := rng.IntN(frames)
			if !ref.ents[idx].Valid {
				continue
			}
			c := content()
			if err := e.Write(ref.ents[idx].EnclaveID, idx, c); err != nil {
				t.Fatalf("step %d: Write(%d): %v", step, idx, err)
			}
			ref.put(idx, c)
			touched = idx
		case op < 7:
			owner := EnclaveID(1 + rng.IntN(3))
			if got, want := e.FreeEnclave(owner), ref.freeEnclave(owner); got != want {
				t.Fatalf("step %d: FreeEnclave(%d) = %d, want %d", step, owner, got, want)
			}
		case op < 9: // EWB
			idx := rng.IntN(frames)
			if !ref.ents[idx].Valid {
				continue
			}
			ent, page := ref.ents[idx], ref.read(idx)
			ev, err := e.EWB(m, idx)
			if err != nil {
				t.Fatalf("step %d: EWB(%d): %v", step, idx, err)
			}
			if want := ref.ewb(idx); !bytes.Equal(ev.Blob, want) {
				t.Fatalf("step %d: EWB(%d) blob differs from the full-page reference", step, idx)
			}
			blobs = append(blobs, evicted{ev, ent, page})
		default: // ELDU
			if len(blobs) == 0 || len(ref.free) == 0 {
				continue
			}
			i := rng.IntN(len(blobs))
			got, err := e.ELDU(m, blobs[i].ep)
			if err != nil {
				t.Fatalf("step %d: ELDU: %v", step, err)
			}
			want, _ := ref.alloc(blobs[i].ent, blobs[i].page)
			if got != want {
				t.Fatalf("step %d: ELDU took frame %d, reference %d", step, got, want)
			}
			if page, _ := e.Read(blobs[i].ent.EnclaveID, got); !bytes.Equal(page, blobs[i].page) {
				t.Fatalf("step %d: page reloaded into frame %d differs from the one evicted", step, got)
			}
			blobs = append(blobs[:i], blobs[i+1:]...)
			reloads++
			touched = got
		}
		for idx := 0; idx < frames; idx++ {
			if idx != touched && step%20 != 0 {
				continue
			}
			ent := ref.ents[idx]
			raw, ok := e.ReadRaw(idx)
			if ok != ent.Valid {
				t.Fatalf("step %d: ReadRaw(%d) ok = %v, want %v", step, idx, ok, ent.Valid)
			}
			if !ok {
				continue
			}
			if !bytes.Equal(raw, ref.pages[idx]) {
				t.Fatalf("step %d: ReadRaw(%d) differs from the full-page reference", step, idx)
			}
			if page, err := e.Read(ent.EnclaveID, idx); err != nil || !bytes.Equal(page, ref.read(idx)) {
				t.Fatalf("step %d: Read(%d) differs from the full-page reference (err %v)", step, idx, err)
			}
		}
	}
	t.Logf("%d allocations hit ErrEPCFull, %d pages reloaded", full, reloads)
	if full == 0 || reloads == 0 {
		t.Fatalf("sequence never filled the EPC or never reloaded a page (full=%d, reloads=%d)", full, reloads)
	}
}

// TestEPCLaunchedEnclaveHoldsContentOnly: a small enclave's seven pages
// (SECS, TCS, one image page and four empty data pages) have a few dozen
// bytes of content between them, and its frames hold that much host
// memory, not 4 KiB each.
func TestEPCLaunchedEnclaveHoldsContentOnly(t *testing.T) {
	p := testPlatform(t)
	if _, err := p.Launch(echoProgram(), mustSigner(t)); err != nil {
		t.Fatal(err)
	}
	e := p.EPC()
	e.mu.Lock()
	pages, held := 0, 0
	for i, f := range e.frames {
		if e.epcm[i].Valid {
			pages++
			held += cap(f)
		}
	}
	e.mu.Unlock()
	t.Logf("%d pages hold %d frame bytes", pages, held)
	if pages != 7 {
		t.Fatalf("launched enclave has %d pages, want 7", pages)
	}
	if held > 1<<10 {
		t.Fatalf("launched enclave's %d pages hold %d frame bytes, want <= 1 KiB", pages, held)
	}
}
