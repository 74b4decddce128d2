package group

import (
	"math/big"
	"math/bits"
)

// Relation is one linear point equation Σ Scalars[i]*Points[i] == 0
// (the group identity). Verification predicates that reduce to such
// relations — DLEQ proofs, FROST share checks — can be folded across
// many relations into one random-linear-combination multi-scalar
// multiplication by a batch verifier.
type Relation struct {
	Points  []Point
	Scalars []*big.Int
}

// Holds checks the relation individually with one MultiScalarMul.
func (r Relation) Holds(g Group) bool {
	return MultiScalarMul(g, r.Points, r.Scalars).IsIdentity()
}

// multiScalarMuler is the optional fast path a Group implementation can
// provide for MultiScalarMul. Implementations may assume the slices have
// equal, non-zero length and that every point belongs to the group.
type multiScalarMuler interface {
	multiScalarMul(points []Point, scalars []*big.Int) Point
}

// MultiScalarMul computes the multi-scalar multiplication
// Σ scalars[i]*points[i] in one pass. Groups that implement the internal
// fast path (edwards25519 shares one doubling chain across all terms)
// use it; any other group falls back to the naive per-term
// scalar-multiply-and-add, so callers can batch unconditionally. The
// empty sum is the identity; the slices must have equal length.
func MultiScalarMul(g Group, points []Point, scalars []*big.Int) Point {
	if len(points) != len(scalars) {
		panic("group: MultiScalarMul called with mismatched slice lengths")
	}
	if len(points) == 0 {
		return g.Identity()
	}
	if m, ok := g.(multiScalarMuler); ok {
		return m.multiScalarMul(points, scalars)
	}
	acc := g.Identity()
	for i, p := range points {
		acc = acc.Add(p.Mul(scalars[i]))
	}
	return acc
}

// multiScalarMul is the edwards25519 fast path: scalars are reduced
// like Mul's and the terms share one windowed doubling chain (straus).
func (ed25519Group) multiScalarMul(points []Point, scalars []*big.Int) Point {
	pp := ed25519ParamsOnce()
	pts := make([]*ed25519Point, len(points))
	ks := make([]*big.Int, len(points))
	for i, p := range points {
		ep, ok := p.(*ed25519Point)
		if !ok {
			panic("group: mixing edwards25519 with foreign point")
		}
		pts[i] = ep
		ks[i] = new(big.Int).Mod(scalars[i], pp.l)
	}
	return straus(pts, ks)
}

// windowBits is the width of straus's fixed windows: a 16-entry table
// per point against four doublings and at most one add per window.
const windowBits = 4

// straus computes Σ ks[i]*pts[i] for non-negative scalars with 4-bit
// fixed windows (Straus's method): each point gets a table of its
// multiples 0..15, and all terms share one chain of four doublings per
// window, walked from the top window of the longest scalar, each term
// adding its table entry for that window's nibble. k terms of b bits
// cost ~b doublings plus ~k·b/4 adds and 14k table operations, against
// ~b doublings plus ~k·b/2 adds for the binary method. The walk is
// variable time: it skips zero nibbles and zero scalars.
func straus(pts []*ed25519Point, ks []*big.Int) *ed25519Point {
	maxBits := 0
	for _, k := range ks {
		maxBits = max(maxBits, k.BitLen())
	}
	tables := make([][1 << windowBits]*ed25519Point, len(pts))
	for i, p := range pts {
		if ks[i].Sign() != 0 {
			tables[i] = windowTable(p)
		}
	}
	// acc stays nil until the first add, so the chain starts at the
	// top nonzero window instead of doubling the identity.
	var acc *ed25519Point
	for w := (maxBits+windowBits-1)/windowBits - 1; w >= 0; w-- {
		if acc != nil {
			for range windowBits {
				acc = acc.double()
			}
		}
		for i, k := range ks {
			d := window(k, w)
			switch {
			case d == 0:
			case acc == nil:
				acc = tables[i][d]
			default:
				acc = acc.add(tables[i][d])
			}
		}
	}
	if acc == nil {
		return ed25519Group{}.Identity().(*ed25519Point)
	}
	return acc
}

// windowTable returns the multiples 0·P .. 15·P (entry 0 is unused by
// straus and left nil); even entries are doublings, odd ones one add.
func windowTable(p *ed25519Point) (t [1 << windowBits]*ed25519Point) {
	t[1] = p
	for j := 2; j < len(t); j++ {
		if j%2 == 0 {
			t[j] = t[j/2].double()
		} else {
			t[j] = t[j-1].add(p)
		}
	}
	return t
}

// window returns the w-th 4-bit window of the non-negative k. A window
// never straddles a machine word, since 4 divides the word size.
func window(k *big.Int, w int) int {
	words := k.Bits()
	bit := w * windowBits
	i := bit / bits.UintSize
	if i >= len(words) {
		return 0
	}
	return int(words[i]>>(bit%bits.UintSize)) & (1<<windowBits - 1)
}
