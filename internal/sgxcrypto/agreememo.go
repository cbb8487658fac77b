package sgxcrypto

import (
	"sync"
	"sync/atomic"
)

// Agreement memo: each in-process DH agreement is computed once.
//
// Both ends of every agreement in this repository run in one process,
// and one end's Shared returns before the other end's starts. The first
// end computes B^a mod p with big.Int.Exp; the second would compute
// A^b mod p, the same group element, again. The memo hands the second
// end the first end's secret instead.
//
// A hit is exactly Exp's answer. Shared stores a secret under (p, g, own
// public, peer value) and looks up (p, g, peer value, own public), where
// the group and the own public are the copies GenerateKey made: values
// it computed, which no caller can change. So a hit by key b finds the
// entry of a key a in b's group whose own public is b's peer value and
// whose peer value was b's own public. Then A = g^a and B = g^b mod p,
// and the stored SHA-256 of B^a mod p is that of g^(ab) mod p, which is
// A^b mod p: what Exp returns for b, for any modulus and generator.
//
// The memo never changes a charge, a key or an entropy read: GenerateKey
// only copies what it computed, and Shared checks the peer value and
// charges before it looks. Each agreement has one second end, so a hit
// drops its entry. The memo holds at most agreeMemoCap entries and
// evicts the oldest first, so entries no second end takes (the smpc OT
// sender's agreements with the three public keys the receiver holds no
// secret for) cannot grow it. It is allocated on the first store.

// agreeMemoCap bounds the memo. A pending entry is taken when its
// handshake's other end runs, and only handshakes running at the same
// time (on the eval runner's other workers, say) store entries in
// between: far fewer than 64.
const agreeMemoCap = 64

// keyID is one key's group and public value, as the exact bytes the memo
// keys on.
type keyID struct{ p, g, pub string }

// agreeKey is one end's view of an agreement: its key and the peer value.
type agreeKey struct {
	keyID
	peer string
}

var agreeMemo struct {
	mu     sync.Mutex
	secret map[agreeKey][32]byte
	order  []agreeKey // stored keys, a ring whose oldest slot is next
	next   int
}

// sharedExps counts Shared's big.Int.Exp calls (its memo misses), for
// the tests.
var sharedExps atomic.Int64

// takeAgreement returns and drops the secret that the key whose public
// value is peer stored when it agreed with own, if the memo holds it.
func takeAgreement(own keyID, peer string) ([32]byte, bool) {
	k := agreeKey{keyID{p: own.p, g: own.g, pub: peer}, own.pub}
	agreeMemo.mu.Lock()
	defer agreeMemo.mu.Unlock()
	secret, ok := agreeMemo.secret[k]
	if ok {
		delete(agreeMemo.secret, k)
	}
	return secret, ok
}

// storeAgreement records the secret own computed with peer, first
// evicting the entry stored agreeMemoCap stores ago if it is still held.
func storeAgreement(own keyID, peer string, secret [32]byte) {
	agreeMemo.mu.Lock()
	defer agreeMemo.mu.Unlock()
	if agreeMemo.secret == nil {
		agreeMemo.secret = make(map[agreeKey][32]byte, agreeMemoCap)
		agreeMemo.order = make([]agreeKey, agreeMemoCap)
	}
	slot := &agreeMemo.order[agreeMemo.next]
	delete(agreeMemo.secret, *slot)
	*slot = agreeKey{own, peer}
	agreeMemo.secret[*slot] = secret
	agreeMemo.next = (agreeMemo.next + 1) % agreeMemoCap
}
