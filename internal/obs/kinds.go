package obs

import (
	"sort"
	"sync"

	"sgxnet/internal/core"
)

// Probe-kind documentation registry. Every kind a subsystem fires
// through core.Probe must be registered here with a one-line doc
// string, so the metric namespace stays a closed, documented set: a
// typo'd kind or an undocumented new instrument shows up as an unknown
// kind in a strict Registry instead of silently minting a counter. The
// kinds core itself reports are registered below; layered subsystems
// (internal/xcall's rings, internal/tlslite's record codec) register
// theirs from an init in their own package — they may import obs
// because obs never imports them.

var (
	kindMu   sync.RWMutex
	kindDocs = make(map[string]string)
)

// RegisterKind documents a probe kind. Registering the same name twice
// with different text panics at init time — two subsystems claiming one
// kind is a namespace collision, not a runtime condition.
func RegisterKind(name, doc string) {
	if name == "" || doc == "" {
		panic("obs: RegisterKind needs a name and a doc string")
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if prev, ok := kindDocs[name]; ok && prev != doc {
		panic("obs: probe kind " + name + " registered twice with different docs")
	}
	kindDocs[name] = doc
}

// KindDoc returns the doc string for a registered kind.
func KindDoc(name string) (string, bool) {
	kindMu.RLock()
	defer kindMu.RUnlock()
	doc, ok := kindDocs[name]
	return doc, ok
}

// KnownKinds returns every registered kind, sorted.
func KnownKinds() []string {
	kindMu.RLock()
	out := make([]string, 0, len(kindDocs))
	for name := range kindDocs {
		out = append(out, name)
	}
	kindMu.RUnlock()
	sort.Strings(out)
	return out
}

func init() {
	for _, k := range []struct{ name, doc string }{
		{core.KindEENTER, "ENCLU[EENTER]: synchronous enclave entry"},
		{core.KindEEXIT, "ENCLU[EEXIT]: synchronous enclave exit"},
		{core.KindERESUME, "ENCLU[ERESUME]: re-entry after an AEX or ocall"},
		{core.KindEGETKEY, "ENCLU[EGETKEY]: sealing-key derivation"},
		{core.KindEREPORT, "ENCLU[EREPORT]: local attestation report"},
		{core.KindECREATE, "ENCLS[ECREATE]: enclave control structure created"},
		{core.KindEADD, "ENCLS[EADD]: EPC page added at build time"},
		{core.KindEEXTEND, "ENCLS[EEXTEND]: 256-byte measurement chunk"},
		{core.KindEINIT, "ENCLS[EINIT]: enclave sealed and launched"},
		{core.KindEWB, "ENCLS[EWB]: EPC page encrypted and evicted"},
		{core.KindELDU, "ENCLS[ELDU]: evicted page verified and reloaded"},
		{core.KindEnclaveCall, "one completed ecall (enter + exit pair)"},
		{core.KindEnclaveOCall, "one completed ocall (exit + resume pair)"},
		{core.KindEnclaveAlloc, "bytes of enclave heap allocated"},
		{core.KindPacketCrossing, "one packet crossing the enclave boundary by itself (Table 2)"},
		{core.KindSeal, "one sealing operation over enclave state"},
		{core.KindUnseal, "one unsealing operation over sealed state"},
		{core.KindPageAdd, "EPC page committed to an enclave"},
		{core.KindPageEvict, "EPC page evicted by the paging layer"},
		{core.KindPageLoad, "EPC page reloaded by the paging layer"},
		{core.KindPagerFault, "pager access missed the EPC resident set"},
		{core.KindPagerHit, "pager access served from the resident set"},
		{core.KindPagerEvict, "pager victim page written back to make room"},
		{core.KindPagerReload, "pager fault served by reloading an evicted page"},
		{core.KindPagerDemandZero, "pager fault served by a fresh zero page"},
	} {
		RegisterKind(k.name, k.doc)
	}
}
