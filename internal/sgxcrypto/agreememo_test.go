package sgxcrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"sync"
	"testing"

	"sgxnet/internal/core"
)

// The agreement memo may change only host time: both ends of an
// agreement get big.Int.Exp's secret in either call order, a hit charges
// what a miss does, a rejected peer value never reaches the memo, and
// the memo stays within its bound.

// freshMemo empties the agreement memo, as in a process that has made
// no agreement yet, and empties it again when the test ends.
func freshMemo(t testing.TB) {
	t.Helper()
	empty := func() {
		agreeMemo.mu.Lock()
		agreeMemo.secret, agreeMemo.order, agreeMemo.next = nil, nil, 0
		agreeMemo.mu.Unlock()
	}
	empty()
	t.Cleanup(empty)
}

// memoLen returns the number of entries the memo holds.
func memoLen() int {
	agreeMemo.mu.Lock()
	defer agreeMemo.mu.Unlock()
	return len(agreeMemo.secret)
}

// TestHandshakeRunsOneExp: one standard-group handshake in a fresh state
// runs one variable-base Exp, the first end's, and leaves the memo as
// it found it.
func TestHandshakeRunsOneExp(t *testing.T) {
	freshMemo(t)
	exps := sharedExps.Load()
	if err := agree(core.NewMeter(), StandardGroup(), true); err != nil {
		t.Fatal(err)
	}
	if got := sharedExps.Load() - exps; got != 1 {
		t.Fatalf("a handshake ran %d Exps, want 1", got)
	}
	if n := memoLen(); n != 0 {
		t.Fatalf("the memo holds %d entries after a handshake, want 0", n)
	}
}

// TestMemoHitChargesAsMiss: the second end's Shared, served from the
// memo, charges exactly what the first end's Exp did.
func TestMemoHitChargesAsMiss(t *testing.T) {
	freshMemo(t)
	params := StandardGroup()
	a, err := GenerateKey(core.NewMeter(), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKey(core.NewMeter(), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	exps := sharedExps.Load()
	miss, hit := core.NewMeter(), core.NewMeter()
	if _, err := a.Shared(miss, b.Public); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Shared(hit, a.Public); err != nil {
		t.Fatal(err)
	}
	if got := sharedExps.Load() - exps; got != 1 {
		t.Fatalf("ran %d Exps, want 1: the second end was not a hit", got)
	}
	if hit.Snapshot() != miss.Snapshot() {
		t.Fatalf("a hit charged %+v, a miss %+v", hit.Snapshot(), miss.Snapshot())
	}
	if got, want := hit.Normal(), scaleCost(core.CostDHKeyAgree/2, 1024, 1024, 3); got != want {
		t.Fatalf("a hit charged %d normal instructions, want %d", got, want)
	}
}

// TestMemoBounded: Shared calls no second end answers (as the smpc OT
// sender's agreements with keys nobody holds) never grow the memo past
// its bound; the oldest are evicted first, and a fresh pair still hits.
func TestMemoBounded(t *testing.T) {
	freshMemo(t)
	m := core.NewMeter()
	params := StandardGroup()
	k, err := GenerateKey(m, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	const unmatched = agreeMemoCap + 8
	for i := 0; i < unmatched; i++ {
		if _, err := k.Shared(m, big.NewInt(int64(i+2))); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n > agreeMemoCap {
			t.Fatalf("after %d unmatched agreements the memo holds %d entries, cap %d", i+1, n, agreeMemoCap)
		}
	}
	agreeMemo.mu.Lock()
	for i := 0; i < unmatched; i++ {
		_, held := agreeMemo.secret[agreeKey{k.id, string(big.NewInt(int64(i + 2)).Bytes())}]
		if evicted := i < unmatched-agreeMemoCap; held == evicted {
			t.Errorf("unmatched agreement %d: held %v, want %v", i, held, !evicted)
		}
	}
	agreeMemo.mu.Unlock()
	exps := sharedExps.Load()
	if err := agree(m, params, true); err != nil {
		t.Fatal(err)
	}
	if got := sharedExps.Load() - exps; got != 1 {
		t.Fatalf("a fresh pair in a full memo ran %d Exps, want 1", got)
	}
}

// TestScribbledKeyPeerGetsExp: a caller that changes a key's exported
// Public or Params, in place, cannot put a wrong secret in the memo for
// the key's peer, nor take one from it; the key keeps agreeing in its
// own group. The peer is sent both the changed and the original public
// value, before and after the changed key's Shared.
func TestScribbledKeyPeerGetsExp(t *testing.T) {
	p := StandardGroup().P
	for _, tc := range []struct {
		name     string
		scribble func(k *DHKey)
	}{
		{"Public", func(k *DHKey) { k.Public.SetInt64(12345) }},
		{"Params", func(k *DHKey) {
			k.Params.P.Add(k.Params.P, big.NewInt(2))
			k.Params.G.SetInt64(5)
		}},
	} {
		for _, scribbledFirst := range []bool{true, false} {
			freshMemo(t)
			m := core.NewMeter()
			a, err := GenerateKey(m, StandardGroup(), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := GenerateKey(m, StandardGroup(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pubA := new(big.Int).Set(a.Public)
			tc.scribble(a)
			scribbled := func() {
				got, err := a.Shared(m, b.Public)
				if err != nil {
					t.Fatal(err)
				}
				if got != expSecret(a, p, b.Public) {
					t.Fatalf("%s, scribbled key first %v: its own secret is not Exp's in its group", tc.name, scribbledFirst)
				}
			}
			if scribbledFirst {
				scribbled()
			}
			for _, peer := range []*big.Int{a.Public, pubA} {
				got, err := b.Shared(m, peer)
				if err != nil {
					t.Fatal(err)
				}
				if got != expSecret(b, p, peer) {
					t.Fatalf("%s, scribbled key first %v: peer value %x: the peer's secret is not Exp's", tc.name, scribbledFirst, peer)
				}
			}
			if !scribbledFirst {
				scribbled()
			}
		}
	}
}

// TestMemoKeysOnGroup: two keys whose groups differ only in the
// modulus, or only in the generator, exchange public values; neither
// end may be served the other's secret, since each computes in its own
// group.
func TestMemoKeysOnGroup(t *testing.T) {
	std := StandardGroup()
	for name, other := range map[string]*DHParams{
		"modulus":   {P: new(big.Int).Add(oakley2P, big.NewInt(2)), G: big.NewInt(2)},
		"generator": {P: new(big.Int).Set(oakley2P), G: big.NewInt(5)},
	} {
		freshMemo(t)
		m := core.NewMeter()
		a, err := GenerateKey(m, std, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateKey(m, other, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, end := range []struct {
			k, peer *DHKey
			p       *big.Int
		}{{a, b, std.P}, {b, a, other.P}} {
			got, err := end.k.Shared(m, end.peer.Public)
			if err != nil {
				t.Fatal(err)
			}
			if got != expSecret(end.k, end.p, end.peer.Public) {
				t.Fatalf("groups differing in the %s: an end got a secret that is not Exp's", name)
			}
		}
	}
}

// TestConcurrentHandshakes: handshakes on several goroutines at once
// each get Exp's secret at both ends and run one Exp apiece. CI runs it
// under -race with -count=10.
func TestConcurrentHandshakes(t *testing.T) {
	freshMemo(t)
	exps := sharedExps.Load()
	const handshakes = 16
	var wg sync.WaitGroup
	errs := make(chan error, handshakes)
	for i := 0; i < handshakes; i++ {
		wg.Add(1)
		go func(aFirst bool) {
			defer wg.Done()
			// Each handshake rebuilds the group from bytes, as a peer
			// reading it off the wire does.
			params := &DHParams{P: new(big.Int).SetBytes(oakley2P.Bytes()), G: big.NewInt(2)}
			errs <- agree(core.NewMeter(), params, aFirst)
		}(i%2 == 0)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := sharedExps.Load() - exps; got != handshakes {
		t.Fatalf("%d handshakes ran %d Exps, want %d", handshakes, got, handshakes)
	}
}

// entropy is a deterministic stream for fuzzed keys: SHA-256 in counter
// mode over a seed. Any seed gives an endless stream, so rand.Int's
// rejection sampling always ends.
type entropy struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func (e *entropy) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if len(e.buf) == 0 {
			h := sha256.New()
			h.Write(e.seed)
			h.Write(binary.BigEndian.AppendUint64(nil, e.ctr))
			e.buf = h.Sum(nil)
			e.ctr++
		}
		c := copy(p[n:], e.buf)
		e.buf = e.buf[c:]
		n += c
	}
	return len(p), nil
}

// FuzzDHAgreement: two keys drawn from fuzzer-chosen entropy agree, in
// both call orders, on the secret Exp gives each end, in the standard
// group (which has a fixed-base table) and in the 768-bit Oakley group
// (which a process does not reuse).
func FuzzDHAgreement(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{2})
	f.Add([]byte("challenger"), []byte("target"))
	groups := []*DHParams{StandardGroup(), {P: oakley1P, G: big.NewInt(2)}}
	f.Fuzz(func(t *testing.T, seedA, seedB []byte) {
		m := core.NewMeter()
		for _, params := range groups {
			for _, aFirst := range []bool{true, false} {
				a, err := GenerateKey(m, params, &entropy{seed: seedA})
				if err != nil {
					t.Fatal(err)
				}
				b, err := GenerateKey(m, params, &entropy{seed: seedB})
				if err != nil {
					t.Fatal(err)
				}
				if err := checkAgreement(m, params.P, a, b, aFirst); err != nil {
					t.Fatalf("%d-bit group: %v", params.Bits(), err)
				}
			}
		}
	})
}

// BenchmarkHandshake is one standard-group agreement at this layer: two
// GenerateKey and two Shared calls, one of them served by the memo.
func BenchmarkHandshake(b *testing.B) {
	m := core.NewMeter()
	params := StandardGroup()
	if _, err := GenerateKey(m, params, nil); err != nil { // builds the table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := GenerateKey(m, params, nil)
		if err != nil {
			b.Fatal(err)
		}
		y, err := GenerateKey(m, params, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := x.Shared(m, y.Public); err != nil {
			b.Fatal(err)
		}
		if _, err := y.Shared(m, x.Public); err != nil {
			b.Fatal(err)
		}
	}
}
