package sgxcrypto

import (
	"bytes"
	crand "crypto/rand"
	"errors"
	"io"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"sgxnet/internal/core"
)

// The fixed-base tables may change only host time: every g^x they
// produce must equal big.Int.Exp's, GenerateKey must read the same
// entropy and charge the same cost, and only the groups a process
// reuses ever get a table.

// generatedGroup resets the parameter cache and returns a fresh
// system-entropy group of the given size, which the cache now holds.
// The caller's cleanup resets the cache again.
func generatedGroup(t testing.TB, bits int) *DHParams {
	t.Helper()
	ResetParamCache()
	t.Cleanup(ResetParamCache)
	params, err := GenerateParams(core.NewMeter(), bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// reused returns the table holder of a group the test knows is reused.
func reused(t testing.TB, params *DHParams) *fixedBase {
	t.Helper()
	fb := reusedGroup(params)
	if fb == nil {
		t.Fatalf("%d-bit group not recognised as reused", params.Bits())
	}
	return fb
}

// reusedGroups are the two kinds of group a process reuses.
var reusedGroups = []struct {
	name   string
	params func(t *testing.T) *DHParams
}{
	{"standard", func(*testing.T) *DHParams { return StandardGroup() }},
	{"generated", func(t *testing.T) *DHParams { return generatedGroup(t, 512) }},
}

// edgeExponents are the exponents every group is checked on: the
// smallest, the largest in range, a lone top bit, windows of all ones,
// and one exponent one bit wider than the table covers (the fallback).
func edgeExponents(p *big.Int, tableBits int) []*big.Int {
	one := big.NewInt(1)
	ones := func(n int) *big.Int {
		return new(big.Int).Sub(new(big.Int).Lsh(one, uint(n)), one)
	}
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(window),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(p, one),
		new(big.Int).Lsh(one, uint(p.BitLen()-1)),
		ones(window),
		ones(p.BitLen()),
		ones(tableBits),
		new(big.Int).Lsh(ones(tableBits/2), uint(tableBits/2)),
		new(big.Int).Lsh(one, uint(tableBits)),
	}
}

func TestFixedBaseMatchesExp(t *testing.T) {
	for _, tc := range reusedGroups {
		t.Run(tc.name, func(t *testing.T) {
			params := tc.params(t)
			fb := reused(t, params)
			tableBits := window * len(fb.table())
			if tableBits < params.Bits() || tableBits >= params.Bits()+window {
				t.Fatalf("table covers %d bits for a %d-bit modulus", tableBits, params.Bits())
			}
			xs := edgeExponents(params.P, tableBits)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 64; i++ {
				xs = append(xs, new(big.Int).Rand(rng, params.P))
			}
			for _, x := range xs {
				want := new(big.Int).Exp(params.G, x, params.P)
				if got := fb.exp(x); got.Cmp(want) != 0 {
					t.Fatalf("g^%x: table gives %x, Exp gives %x", x, got, want)
				}
			}
		})
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestGenerateKeyUnchangedByTable: with a fixed entropy stream,
// GenerateKey draws the exponent the reference draw does from the same
// bytes, returns exactly Exp(G, x, P) and charges half a key agreement.
func TestGenerateKeyUnchangedByTable(t *testing.T) {
	for _, tc := range reusedGroups {
		t.Run(tc.name, func(t *testing.T) {
			params := tc.params(t)
			reused(t, params)
			stream := make([]byte, 4096)
			rand.New(rand.NewSource(7)).Read(stream)
			for i := 0; i < 8; i++ {
				entropy := stream[i*256:]
				m := core.NewMeter()
				in := &countingReader{r: bytes.NewReader(entropy)}
				k, err := GenerateKey(m, params, in)
				if err != nil {
					t.Fatal(err)
				}
				// The reference draw: x ∈ [2, P−2] from the same bytes.
				ref := &countingReader{r: bytes.NewReader(entropy)}
				x, err := crand.Int(ref, new(big.Int).Sub(params.P, big.NewInt(3)))
				if err != nil {
					t.Fatal(err)
				}
				x.Add(x, big.NewInt(2))
				if in.n != ref.n || k.x.Cmp(x) != 0 {
					t.Fatalf("read %d bytes giving x=%x, reference read %d giving %x", in.n, k.x, ref.n, x)
				}
				if want := new(big.Int).Exp(params.G, x, params.P); k.Public.Cmp(want) != 0 {
					t.Fatalf("Public = %x, want Exp(G, x, P) = %x", k.Public, want)
				}
				if got, want := m.Normal(), scaleCost(core.CostDHKeyAgree/2, params.Bits(), 1024, 3); got != want {
					t.Fatalf("charged %d, want %d", got, want)
				}
			}
		})
	}
}

// TestUnknownGroupTakesFallback: a group the process does not reuse —
// an uncached prime, or the standard prime with another generator —
// gets no table and still yields Exp's value.
func TestUnknownGroupTakesFallback(t *testing.T) {
	cached := generatedGroup(t, 512)
	uncached, err := GenerateParams(core.NewMeter(), 512, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if uncached.P.Cmp(cached.P) == 0 {
		t.Fatal("caller-supplied reader was served from the cache")
	}
	otherGen := &DHParams{P: StandardGroup().P, G: big.NewInt(5)}
	for name, params := range map[string]*DHParams{"unknown P": uncached, "standard P, G=5": otherGen} {
		builds := tableBuilds.Load()
		if reusedGroup(params) != nil {
			t.Errorf("%s: recognised as a reused group", name)
		}
		k, err := GenerateKey(core.NewMeter(), params, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Exp(params.G, k.x, params.P); k.Public.Cmp(want) != 0 {
			t.Errorf("%s: Public is not Exp(G, x, P)", name)
		}
		if got := tableBuilds.Load() - builds; got != 0 {
			t.Errorf("%s: built %d tables, want 0", name, got)
		}
	}
}

func TestResetParamCacheDropsTables(t *testing.T) {
	params := generatedGroup(t, 512)
	if _, err := GenerateKey(core.NewMeter(), params, nil); err != nil {
		t.Fatal(err)
	}
	if fb := reused(t, params); fb.pow == nil {
		t.Fatal("GenerateKey did not build the cached group's table")
	}
	ResetParamCache()
	if reusedGroup(params) != nil {
		t.Fatal("the generated group's table survived ResetParamCache")
	}
	builds := tableBuilds.Load()
	k, err := GenerateKey(core.NewMeter(), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Exp(params.G, k.x, params.P); k.Public.Cmp(want) != 0 {
		t.Fatal("Public is not Exp(G, x, P) after the reset")
	}
	if got := tableBuilds.Load() - builds; got != 0 {
		t.Fatalf("a dropped group built %d tables, want 0", got)
	}
}

// TestFixedBaseColdBuild: goroutines that meet a cold group together
// build its table once and all get Exp's value. CI runs it under -race
// with -count=10.
func TestFixedBaseColdBuild(t *testing.T) {
	params := generatedGroup(t, 512)
	builds := tableBuilds.Load()
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each caller rebuilds the group from bytes, as a peer
			// reading it off the wire does.
			own := &DHParams{P: new(big.Int).SetBytes(params.P.Bytes()), G: big.NewInt(2)}
			k, err := GenerateKey(core.NewMeter(), own, nil)
			if err == nil && k.Public.Cmp(new(big.Int).Exp(own.G, k.x, own.P)) != 0 {
				err = errors.New("Public is not Exp(G, x, P)")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := tableBuilds.Load() - builds; got != 1 {
		t.Fatalf("%d callers built %d tables, want 1", callers, got)
	}
}

// oakley1P is the 768-bit prime of RFC 2409 §6.1 (Oakley group 1). The
// fuzzer uses it for its second group because a fixed prime lets a
// failing input replay; the table code treats it as any cached group.
var oakley1P, _ = new(big.Int).SetString("FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"+
	"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"+
	"4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF", 16)

// FuzzFixedBaseExp checks the tables against big.Int.Exp on arbitrary
// exponents, including ones wider than a table covers.
func FuzzFixedBaseExp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 129))
	groups := []*fixedBase{newFixedBase(oakley2P, big.NewInt(2)), newFixedBase(oakley1P, big.NewInt(2))}
	f.Fuzz(func(t *testing.T, b []byte) {
		// Twice the widest table is wide enough to reach the fallback,
		// and keeps big.Int.Exp fast on whatever length the fuzzer tries.
		x := new(big.Int).SetBytes(b[:min(len(b), 256)])
		for _, fb := range groups {
			want := new(big.Int).Exp(fb.g, x, fb.p)
			if got := fb.exp(x); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit group, g^%x: table gives %x, Exp gives %x", fb.p.BitLen(), x, got, want)
			}
		}
	})
}

func BenchmarkGenerateKey(b *testing.B) {
	for _, tc := range []struct {
		name   string
		params func(b *testing.B) *DHParams
	}{
		{"standard", func(*testing.B) *DHParams { return StandardGroup() }},
		{"generated", func(b *testing.B) *DHParams { return generatedGroup(b, 1024) }},
		// The same size of group, not cached: big.Int.Exp's cost.
		{"uncached", func(*testing.B) *DHParams {
			return &DHParams{P: StandardGroup().P, G: big.NewInt(5)}
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			params := tc.params(b)
			m := core.NewMeter()
			if _, err := GenerateKey(m, params, nil); err != nil { // builds the table
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := GenerateKey(m, params, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShared measures the end of an agreement that computes first:
// its peer never calls Shared, so every call misses the agreement memo
// and runs big.Int.Exp. BenchmarkHandshake measures a whole agreement.
func BenchmarkShared(b *testing.B) {
	m := core.NewMeter()
	params := StandardGroup()
	k, err := GenerateKey(m, params, nil)
	if err != nil {
		b.Fatal(err)
	}
	peer, err := GenerateKey(m, params, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Shared(m, peer.Public); err != nil {
			b.Fatal(err)
		}
	}
}
