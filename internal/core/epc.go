package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the SGX enclave page size.
const PageSize = 4096

// PageType identifies what an EPC page holds, mirroring the SGX PT_* types.
type PageType uint8

const (
	// PageSECS holds an enclave's SGX Enclave Control Structure.
	PageSECS PageType = iota
	// PageTCS holds a Thread Control Structure (an enclave entry point).
	PageTCS
	// PageREG holds regular enclave code or data.
	PageREG
)

func (t PageType) String() string {
	switch t {
	case PageSECS:
		return "SECS"
	case PageTCS:
		return "TCS"
	case PageREG:
		return "REG"
	default:
		return fmt.Sprintf("PageType(%d)", uint8(t))
	}
}

// Permissions of an EPC page, as recorded in the EPCM.
type PagePerms uint8

const (
	PermR PagePerms = 1 << iota
	PermW
	PermX
)

func (p PagePerms) String() string {
	buf := []byte("---")
	if p&PermR != 0 {
		buf[0] = 'r'
	}
	if p&PermW != 0 {
		buf[1] = 'w'
	}
	if p&PermX != 0 {
		buf[2] = 'x'
	}
	return string(buf)
}

// EPCMEntry is the per-frame metadata the processor keeps to police access
// to EPC pages (the Enclave Page Cache Map).
type EPCMEntry struct {
	Valid     bool
	Type      PageType
	EnclaveID EnclaveID // owning enclave (0 for SECS pages)
	LinAddr   uint64    // enclave-relative linear address the page maps
	Perms     PagePerms
}

// EPC models the Enclave Page Cache: protected memory whose contents are
// encrypted by the memory encryption engine. Frames store sealed bytes;
// only an access on behalf of the owning enclave yields plaintext. Reads
// from outside (ReadRaw) observe ciphertext, modelling a physical-memory
// inspector.
//
// The host memory behind the model follows use, not configuration: the
// frame table (frames, epcm) reaches only the high-water mark of frames
// ever handed out, and the free list (released) holds only frames given
// back below that mark. A frame past the mark has never been used and
// reads as invalid.
type EPC struct {
	mu       sync.Mutex
	size     int                     // configured frame count
	frames   [][]byte                // sealed contents, up to the high-water mark
	epcm     []EPCMEntry             // one entry per frame in frames
	released []int                   // freed frames below the mark, reused last-in first-out
	sealKey  [32]byte                // MEE key; lives only inside the CPU package
	versions map[versionKey][32]byte // EWB version tokens (CPU-held)
	evictSeq map[versionKey]uint64   // per-(enclave,addr) eviction counter (nonce derivation)

	// probe mirrors the owning platform's probe (see Platform.SetProbe)
	// so paging events are observable without a back-pointer.
	probe atomic.Pointer[probeHolder]
}

// ErrEPCFull is returned when no EPC frame is free.
var ErrEPCFull = errors.New("core: EPC full")

// ErrEPCAccess is returned when an access violates the EPCM.
var ErrEPCAccess = errors.New("core: EPCM access violation")

// NewEPC builds an EPC with the given number of 4KiB frames, sealed with
// the supplied memory-encryption key. No frame table is allocated until
// frames are handed out.
func NewEPC(frames int, sealKey [32]byte) *EPC {
	return &EPC{size: max(frames, 0), sealKey: sealKey}
}

// FrameCount reports the total number of EPC frames.
func (e *EPC) FrameCount() int { return e.size }

// FreeCount reports the number of unallocated frames.
func (e *EPC) FreeCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.freeFrames()
}

// freeFrames counts the released frames plus the never-used ones past
// the high-water mark. Caller holds e.mu.
func (e *EPC) freeFrames() int { return len(e.released) + e.size - len(e.frames) }

// take claims a free frame: the most recently released one, else the
// lowest never-used one, which raises the high-water mark. That is the
// order an eager list of every frame, pushed in descending order and
// popped from the top, hands frames out in, so frame numbers (and with
// them MEE keystreams) do not depend on how much of the table exists.
// Caller holds e.mu and has checked freeFrames() > 0.
func (e *EPC) take() int {
	if n := len(e.released); n > 0 {
		idx := e.released[n-1]
		e.released = e.released[:n-1]
		return idx
	}
	e.frames = append(e.frames, nil)
	e.epcm = append(e.epcm, EPCMEntry{})
	return len(e.frames) - 1
}

// release invalidates frame idx and pushes it for reuse. Caller holds
// e.mu; idx is below the high-water mark.
func (e *EPC) release(idx int) {
	e.epcm[idx] = EPCMEntry{}
	e.frames[idx] = nil
	e.released = append(e.released, idx)
}

// Alloc claims a frame for the given enclave page. The plaintext is sealed
// into the frame. Returns the frame index.
func (e *EPC) Alloc(owner EnclaveID, typ PageType, linAddr uint64, perms PagePerms, plaintext []byte) (int, error) {
	if len(plaintext) > PageSize {
		return 0, fmt.Errorf("core: page content %d bytes exceeds page size", len(plaintext))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.freeFrames() == 0 {
		return 0, ErrEPCFull
	}
	idx := e.take()
	page := make([]byte, PageSize)
	copy(page, plaintext)
	e.seal(idx, page)
	e.frames[idx] = page
	e.epcm[idx] = EPCMEntry{Valid: true, Type: typ, EnclaveID: owner, LinAddr: linAddr, Perms: perms}
	return idx, nil
}

// Read returns the plaintext of a frame on behalf of the owning enclave.
func (e *EPC) Read(owner EnclaveID, idx int) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.check(owner, idx, PermR); err != nil {
		return nil, err
	}
	page := make([]byte, PageSize)
	copy(page, e.frames[idx])
	e.seal(idx, page) // unseal (XOR keystream is its own inverse)
	return page, nil
}

// Write replaces a frame's plaintext on behalf of the owning enclave.
func (e *EPC) Write(owner EnclaveID, idx int, plaintext []byte) error {
	if len(plaintext) > PageSize {
		return fmt.Errorf("core: page content %d bytes exceeds page size", len(plaintext))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.check(owner, idx, PermW); err != nil {
		return err
	}
	page := make([]byte, PageSize)
	copy(page, plaintext)
	e.seal(idx, page)
	e.frames[idx] = page
	return nil
}

// ReadRaw returns the sealed frame bytes, modelling an attacker with
// physical memory access: the MEE guarantees this never reveals plaintext.
func (e *EPC) ReadRaw(idx int) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx < 0 || idx >= len(e.frames) || !e.epcm[idx].Valid {
		return nil, false
	}
	out := make([]byte, PageSize)
	copy(out, e.frames[idx])
	return out, true
}

// Entry returns the EPCM entry for a frame.
func (e *EPC) Entry(idx int) (EPCMEntry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx < 0 || idx >= len(e.epcm) {
		return EPCMEntry{}, false
	}
	return e.epcm[idx], e.epcm[idx].Valid
}

// FreeEnclave releases every frame owned by the enclave (EREMOVE).
func (e *EPC) FreeEnclave(owner EnclaveID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for i := range e.epcm {
		if e.epcm[i].Valid && e.epcm[i].EnclaveID == owner {
			e.release(i)
			n++
		}
	}
	return n
}

// removeSECS releases an enclave's SECS frame (EREMOVE of the SECS,
// which SGX allows only once the enclave's other pages are gone).
func (e *EPC) removeSECS(idx int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx >= 0 && idx < len(e.epcm) && e.epcm[idx].Valid && e.epcm[idx].Type == PageSECS {
		e.release(idx)
	}
}

func (e *EPC) check(owner EnclaveID, idx int, need PagePerms) error {
	if idx < 0 || idx >= len(e.frames) {
		return ErrEPCAccess
	}
	ent := e.epcm[idx]
	if !ent.Valid || ent.EnclaveID != owner || ent.Perms&need != need {
		return ErrEPCAccess
	}
	return nil
}

// seal XORs the page with a frame-specific keystream derived from the MEE
// key. XOR sealing is an emulation stand-in for AES-XTS memory encryption:
// it is involutive (seal == unseal) and ensures raw frame reads never see
// plaintext, which is the property the threat model needs.
func (e *EPC) seal(idx int, page []byte) {
	ks := e.keystream(idx)
	for i := range page {
		page[i] ^= ks[i%len(ks)]
	}
}

func (e *EPC) keystream(idx int) []byte {
	// A 64-byte keystream mixed from the seal key and the frame index.
	ks := make([]byte, 64)
	for i := range ks {
		ks[i] = e.sealKey[i%32] ^ byte(idx>>uint(8*(i%4))) ^ byte(i*131)
	}
	return ks
}
