package core

import (
	"crypto/sha256"
	"encoding/binary"
)

// Measurement is a SHA-256 digest identifying enclave contents (MRENCLAVE)
// or an enclave signer (MRSIGNER).
type Measurement [32]byte

// IsZero reports whether the measurement is all zeroes.
func (m Measurement) IsZero() bool { return m == Measurement{} }

// measurer accumulates MRENCLAVE exactly the way SGX does: a running
// SHA-256 over a log of ECREATE/EADD/EEXTEND records. Every EADD
// contributes the page's metadata; every EEXTEND contributes a 256-byte
// chunk of page content.
type measurer struct {
	h interface {
		Write(p []byte) (int, error)
		Sum(b []byte) []byte
	}
	rec [64]byte // record scratch, so no record escapes per write
}

const extendChunk = 256

// zeroChunk is the zero tail of every page whose content ends before the
// page does: a page is measured as its content followed by zeroes.
var zeroChunk [extendChunk]byte

func newMeasurer(size uint64) *measurer {
	m := &measurer{h: sha256.New()}
	copy(m.rec[:8], "ECREATE\x00")
	binary.LittleEndian.PutUint64(m.rec[8:16], size)
	m.h.Write(m.rec[:])
	return m
}

// addPage folds an EADD record and the page's EEXTEND chunks into the
// measurement. Content beyond PageSize is not part of the page.
func (m *measurer) addPage(linAddr uint64, typ PageType, perms PagePerms, content []byte) {
	m.rec = [64]byte{}
	copy(m.rec[:8], "EADD\x00\x00\x00\x00")
	binary.LittleEndian.PutUint64(m.rec[8:16], linAddr)
	m.rec[16] = byte(typ)
	m.rec[17] = byte(perms)
	m.h.Write(m.rec[:])

	ext := m.rec[:16]
	copy(ext[:8], "EEXTEND\x00")
	for off := 0; off < PageSize; off += extendChunk {
		binary.LittleEndian.PutUint64(ext[8:16], linAddr+uint64(off))
		m.h.Write(ext)
		var chunk []byte
		if off < len(content) {
			chunk = content[off:min(off+extendChunk, len(content))]
		}
		m.h.Write(chunk)
		m.h.Write(zeroChunk[len(chunk):])
	}
}

// final returns MRENCLAVE.
func (m *measurer) final() Measurement {
	var out Measurement
	copy(out[:], m.h.Sum(nil))
	return out
}

// programPages walks the page layout of a program image: one TCS page,
// the image in REG pages, then four data pages (unmeasured content,
// measured metadata). EnclaveBuilder.AddProgram adds these pages and
// MeasureProgram measures them, so the two cannot disagree.
func programPages(img []byte, page func(linAddr uint64, typ PageType, perms PagePerms, content []byte) error) error {
	if err := page(0, PageTCS, PermR|PermW, []byte("TCS0")); err != nil {
		return err
	}
	addr := uint64(PageSize)
	for off := 0; off < len(img); off += PageSize {
		if err := page(addr, PageREG, PermR|PermX, img[off:min(off+PageSize, len(img))]); err != nil {
			return err
		}
		addr += PageSize
	}
	for i := 0; i < 4; i++ {
		if err := page(addr, PageREG, PermR|PermW, nil); err != nil {
			return err
		}
		addr += PageSize
	}
	return nil
}

// MeasureProgram computes the MRENCLAVE a program will have when loaded
// with EnclaveBuilder.AddProgram — the value a verifier who builds the
// program deterministically (§4) expects from remote attestation.
func MeasureProgram(prog *Program) Measurement {
	img := prog.Image()
	m := newMeasurer(uint64(len(img)))
	_ = programPages(img, func(linAddr uint64, typ PageType, perms PagePerms, content []byte) error { // measuring never fails
		m.addPage(linAddr, typ, perms, content)
		return nil
	})
	return m.final()
}
