package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// EPC paging (EWB / ELDU): the EPC is small, so the untrusted OS may
// evict enclave pages to ordinary memory. The hardware guarantees the
// paper's threat model holds anyway: evicted pages leave the EPC
// encrypted and MACed under a CPU-held paging key, and a per-eviction
// version token retained inside the CPU defeats replay — the OS cannot
// feed an enclave a stale copy of its own page (rollback protection).

// EvictedPage is the opaque blob the OS stores after EWB. Everything in
// it is ciphertext or integrity-protected metadata.
type EvictedPage struct {
	Blob []byte
}

// Cost of one page eviction/reload: page-sized AES plus MAC.
const (
	CostPageEvict = PageSize*CostAESBlockPerByte + CostHMAC
	CostPageLoad  = PageSize*CostAESBlockPerByte + CostHMAC
)

// evictedBlobLen is the exact wire size of an EWB blob:
// nonce(16) ‖ metadata(18) ‖ ciphertext(PageSize) ‖ HMAC-SHA256(32).
const evictedBlobLen = 16 + 18 + PageSize + 32

// ErrPageVersion is returned by ELDU for replayed or unknown evicted
// pages.
var ErrPageVersion = errors.New("core: evicted-page version check failed (replay or unknown page)")

type versionKey struct {
	owner EnclaveID
	addr  uint64
}

// EWB evicts a frame: the plaintext page is re-encrypted under the
// paging key with a deterministic per-eviction nonce, its EPCM metadata
// is embedded, a version token is retained in the CPU, and the frame is
// freed. The returned blob belongs to the untrusted OS.
//
// The meter is charged — and the EWB probe kinds observed — only after
// the request validates (frame in range, valid, not a SECS page): a
// rejected eviction costs the platform nothing, so failed-path attempts
// cannot skew the tables' tallies or probe coverage.
func (e *EPC) EWB(m *Meter, idx int) (*EvictedPage, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx < 0 || idx >= len(e.frames) || !e.epcm[idx].Valid {
		return nil, ErrEPCAccess
	}
	ent := e.epcm[idx]
	if ent.Type == PageSECS {
		return nil, fmt.Errorf("core: EWB: SECS pages are not evictable here")
	}
	m.ChargeNormal(CostPageEvict)
	if h := e.probe.Load(); h != nil {
		h.p.Observe(KindEWB, 1)
		h.p.Observe(KindPageEvict, 1)
	}
	// Recover plaintext from the sealed frame.
	page := make([]byte, PageSize)
	copy(page, e.frames[idx])
	e.seal(idx, page)

	// Deterministic nonce: derived from the platform's paging key and a
	// per-(enclave, address) eviction counter. Distinct evictions of the
	// same page get distinct nonces (the counter), distinct pages get
	// distinct nonces (the address/owner), and two platforms built from
	// the same seed produce byte-identical blobs — the determinism
	// contract the pager traces and sweep goldens rely on. crypto/rand
	// here would be equally safe but nondeterministic across runs.
	pk := e.pagingKey()
	if e.evictSeq == nil {
		e.evictSeq = make(map[versionKey]uint64)
	}
	vk := versionKey{ent.EnclaveID, ent.LinAddr}
	seq := e.evictSeq[vk]
	e.evictSeq[vk] = seq + 1
	nonce := e.evictionNonce(pk, ent.EnclaveID, ent.LinAddr, seq)

	block, err := aes.NewCipher(pk[:16])
	if err != nil {
		return nil, err
	}
	meta := make([]byte, 18)
	binary.LittleEndian.PutUint64(meta[:8], uint64(ent.EnclaveID))
	binary.LittleEndian.PutUint64(meta[8:16], ent.LinAddr)
	meta[16] = byte(ent.Type)
	meta[17] = byte(ent.Perms)

	blob := make([]byte, 0, evictedBlobLen)
	blob = append(blob, nonce[:]...)
	blob = append(blob, meta...)
	ct := make([]byte, PageSize)
	cipher.NewCTR(block, nonce[:]).XORKeyStream(ct, page)
	blob = append(blob, ct...)
	mac := hmac.New(sha256.New, pk[16:])
	mac.Write(blob)
	blob = mac.Sum(blob)

	// Version token: the CPU remembers the MAC of the latest eviction of
	// this (enclave, address); ELDU consumes it.
	if e.versions == nil {
		e.versions = make(map[versionKey][32]byte)
	}
	var tok [32]byte
	copy(tok[:], blob[len(blob)-32:])
	e.versions[vk] = tok

	e.release(idx)
	return &EvictedPage{Blob: blob}, nil
}

// evictionNonce derives the CTR nonce for one eviction of (owner, addr).
// Caller holds e.mu (or the EPC is otherwise quiescent).
func (e *EPC) evictionNonce(pk [32]byte, owner EnclaveID, addr, seq uint64) [16]byte {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(owner))
	binary.LittleEndian.PutUint64(buf[8:16], addr)
	binary.LittleEndian.PutUint64(buf[16:24], seq)
	mac := hmac.New(sha256.New, pk[:])
	mac.Write([]byte("sgxnet-ewb-nonce"))
	mac.Write(buf[:])
	var nonce [16]byte
	copy(nonce[:], mac.Sum(nil))
	return nonce
}

// ELDU reloads an evicted page into a free frame, verifying integrity
// and the version token (each eviction loads back exactly once, and only
// its latest version).
//
// Ordering matters twice here. The version token is consumed only after
// a destination frame is secured: a reload attempted against a full EPC
// fails with ErrEPCFull but leaves the token — and therefore the page —
// intact, so the OS can evict something else and retry. And the meter
// charge / probe observation happen only after every validation passes:
// a malformed blob, forged metadata, or replayed token costs nothing
// and reports nothing, keeping failed-path tallies pinned at zero.
func (e *EPC) ELDU(m *Meter, ep *EvictedPage) (int, error) {
	if ep == nil || len(ep.Blob) != evictedBlobLen {
		return 0, ErrPageVersion
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pk := e.pagingKey()
	body, tag := ep.Blob[:len(ep.Blob)-32], ep.Blob[len(ep.Blob)-32:]
	mac := hmac.New(sha256.New, pk[16:])
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), tag) {
		return 0, ErrPageVersion
	}
	meta := body[16 : 16+18]
	owner := EnclaveID(binary.LittleEndian.Uint64(meta[:8]))
	addr := binary.LittleEndian.Uint64(meta[8:16])
	key := versionKey{owner, addr}
	var tok [32]byte
	copy(tok[:], tag)
	if cur, ok := e.versions[key]; !ok || cur != tok {
		return 0, ErrPageVersion
	}
	if e.freeFrames() == 0 {
		return 0, ErrEPCFull
	}
	m.ChargeNormal(CostPageLoad)
	if h := e.probe.Load(); h != nil {
		h.p.Observe(KindELDU, 1)
		h.p.Observe(KindPageLoad, 1)
	}
	delete(e.versions, key)

	block, err := aes.NewCipher(pk[:16])
	if err != nil {
		return 0, err
	}
	var nonce [16]byte
	copy(nonce[:], body[:16])
	page := make([]byte, PageSize)
	cipher.NewCTR(block, nonce[:]).XORKeyStream(page, body[16+18:])

	idx := e.take()
	e.seal(idx, page)
	e.frames[idx] = page
	e.epcm[idx] = EPCMEntry{
		Valid:     true,
		Type:      PageType(meta[16]),
		EnclaveID: owner,
		LinAddr:   addr,
		Perms:     PagePerms(meta[17]),
	}
	return idx, nil
}

// pagingKey derives the EWB encryption/MAC key from the MEE key.
func (e *EPC) pagingKey() [32]byte {
	h := sha256.New()
	h.Write([]byte("sgxnet-paging-key"))
	h.Write(e.sealKey[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
