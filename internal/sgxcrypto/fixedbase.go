package sgxcrypto

import (
	"math/big"
	"sync"
	"sync/atomic"
)

// Fixed-base exponentiation for the DH groups a process reuses.
//
// Every GenerateKey computes g^x mod p for a fresh x, but in practice
// over one of two groups: the standard group, or the group in the
// parameter cache. For those, a table pow[i] = g^(2^(window·i)) mod p
// evaluates g^x with about ⌈bits/window⌉ + 2^window modular products
// instead of big.Int.Exp's ~bits squarings and ~bits/4 products: Yao's
// method (Brickell et al.; HAC Algorithm 14.109). With x written in base
// 2^window as Σ e_i·2^(window·i),
//
//	g^x = Π_{j=1}^{2^window−1} (Π_{e_i=j} pow[i])^j,
//
// and the outer product costs one multiply per j when the inner products
// accumulate from the largest digit down. The result is the integer
// big.Int.Exp returns, so only the host time changes; GenerateKey's
// charge does not depend on which path ran.

// window is the digit width of the fixed-base table, in bits.
const window = 6

// A fixedBase is one group the process reuses and, once built, its
// table. p and g are private copies, never handed out.
type fixedBase struct {
	p, g *big.Int
	once sync.Once
	pow  []big.Int // pow[i] = g^(2^(window·i)) mod p
}

// tableBuilds counts the tables built so far, for the tests.
var tableBuilds atomic.Int64

func newFixedBase(p, g *big.Int) *fixedBase {
	return &fixedBase{p: new(big.Int).Set(p), g: new(big.Int).Set(g)}
}

// is reports whether params is this group, by value.
func (fb *fixedBase) is(params *DHParams) bool {
	return fb.p.Cmp(params.P) == 0 && fb.g.Cmp(params.G) == 0
}

// table returns pow, building it on first use. Its entries share one
// backing array and are only ever read.
func (fb *fixedBase) table() []big.Int {
	fb.once.Do(func() {
		n := (fb.p.BitLen() + window - 1) / window
		words := len(fb.p.Bits())
		flat := make([]big.Word, n*words)
		pow := make([]big.Int, n)
		var v, t, q big.Int
		v.Mod(fb.g, fb.p)
		for i := range pow {
			if i > 0 {
				for k := 0; k < window; k++ {
					t.Mul(&v, &v)
					q.QuoRem(&t, fb.p, &v)
				}
			}
			row := flat[i*words : (i+1)*words : (i+1)*words]
			pow[i].SetBits(row[:copy(row, v.Bits())])
		}
		fb.pow = pow
		tableBuilds.Add(1)
	})
	return fb.pow
}

// exp returns g^x mod p. An exponent wider than the table covers takes
// big.Int.Exp.
func (fb *fixedBase) exp(x *big.Int) *big.Int {
	pow := fb.table()
	if x.Sign() < 0 || x.BitLen() > window*len(pow) {
		return new(big.Int).Exp(fb.g, x, fb.p)
	}
	// Bucket the digit positions by value: the positions i with e_i = j
	// form a list that starts at head[j] and follows next, ending at -1.
	var head [1 << window]int
	for j := range head {
		head[j] = -1
	}
	next := make([]int, len(pow))
	for i := range pow {
		var d uint
		for k := window - 1; k >= 0; k-- {
			d = d<<1 | x.Bit(i*window+k)
		}
		next[i], head[d] = head[d], i
	}
	// a accumulates the result and b the running inner product; each
	// stays implicitly 1, and is set rather than multiplied, until its
	// first factor arrives.
	var a, b, t, q big.Int
	aOne, bOne := true, true
	mulMod := func(z, y *big.Int) {
		t.Mul(z, y)
		q.QuoRem(&t, fb.p, z)
	}
	for j := len(head) - 1; j >= 1; j-- {
		for i := head[j]; i >= 0; i = next[i] {
			if bOne {
				b.Set(&pow[i])
				bOne = false
			} else {
				mulMod(&b, &pow[i])
			}
		}
		if bOne {
			continue
		}
		if aOne {
			a.Set(&b)
			aOne = false
		} else {
			mulMod(&a, &b)
		}
	}
	if aOne {
		a.SetInt64(1)
	}
	return &a
}

// expG returns params.G^x mod params.P: from a table if params is a
// group the process reuses, else by big.Int.Exp.
func expG(params *DHParams, x *big.Int) *big.Int {
	if fb := reusedGroup(params); fb != nil {
		return fb.exp(x)
	}
	return new(big.Int).Exp(params.G, x, params.P)
}
