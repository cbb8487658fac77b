package sgxcrypto

import (
	"math/big"
	"sync"
)

// Process-wide Diffie-Hellman parameter cache.
//
// The paper attributes ~90% of attestation cycles to the DH exchange,
// and almost all of that to the safe-prime parameter search the target
// enclave repeats on every attestation (§5). The *charged* cost is the
// measurement the tables report; the *wall-clock* prime search is pure
// emulation overhead, so the harness may reuse a previously found prime
// as long as every logical generation still charges its full cost.
// GenerateParams therefore charges CostDHParamGen on every call — Table
// 1 and Table 4 tallies are unchanged to the bit — and consults this
// cache before searching. Cache keys are (bits, entropy source): only
// the system-entropy path (rnd == nil) is cached, because a
// caller-supplied reader is a deterministic test fixture whose byte
// consumption is part of its contract.
//
// The cache also keeps the fixed-base tables (fixedbase.go) of the
// groups a process reuses: the standard group's and each cached
// group's. A table is built on first use, never at package init, so a
// run that does no DH pays nothing for it; ResetParamCache drops them
// all. Groups are matched by value, since the attest challenger and the
// tlslite client rebuild DHParams from wire bytes. Any other group gets
// no table, so wire input cannot grow the set.

type paramCacheKey struct {
	bits int
}

var (
	paramCacheMu sync.Mutex
	paramCache   = make(map[paramCacheKey]*fixedBase)
	standardBase = newFixedBase(oakley2P, big.NewInt(2))
)

// cachedParams returns a private copy of the cached group for bits, if
// one exists. Copies keep callers from aliasing (and mutating) the
// cached big.Ints.
func cachedParams(bits int) (*DHParams, bool) {
	paramCacheMu.Lock()
	defer paramCacheMu.Unlock()
	fb, ok := paramCache[paramCacheKey{bits: bits}]
	if !ok {
		return nil, false
	}
	return &DHParams{P: new(big.Int).Set(fb.p), G: new(big.Int).Set(fb.g)}, true
}

// storeParams records a freshly generated group. The stored copy is
// private to the cache. First writer wins; a racing generator's result
// is simply not stored (both are valid groups, and the charged cost —
// the measured quantity — is identical either way).
func storeParams(bits int, p *DHParams) {
	paramCacheMu.Lock()
	defer paramCacheMu.Unlock()
	key := paramCacheKey{bits: bits}
	if _, dup := paramCache[key]; dup {
		return
	}
	paramCache[key] = newFixedBase(p.P, p.G)
}

// reusedGroup returns the table holder of params if params is, by
// value, the standard group or a cached one, and nil otherwise.
func reusedGroup(params *DHParams) *fixedBase {
	paramCacheMu.Lock()
	defer paramCacheMu.Unlock()
	if standardBase.is(params) {
		return standardBase
	}
	if fb := paramCache[paramCacheKey{bits: params.P.BitLen()}]; fb != nil && fb.is(params) {
		return fb
	}
	return nil
}

// ResetParamCache drops every cached group and every fixed-base table —
// for tests that need to observe the generation path itself.
func ResetParamCache() {
	paramCacheMu.Lock()
	defer paramCacheMu.Unlock()
	paramCache = make(map[paramCacheKey]*fixedBase)
	standardBase = newFixedBase(oakley2P, big.NewInt(2))
}
