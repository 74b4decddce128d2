package group

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// naiveMSM is the reference per-term scalar-multiply-and-add.
func naiveMSM(g Group, points []Point, scalars []*big.Int) Point {
	acc := g.Identity()
	for i, p := range points {
		acc = acc.Add(p.Mul(scalars[i]))
	}
	return acc
}

func msmCase(t *testing.T, g Group, n int) ([]Point, []*big.Int) {
	t.Helper()
	pts := make([]Point, n)
	ks := make([]*big.Int, n)
	for i := range pts {
		k, err := g.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = g.HashToPoint("msm-test", []byte{byte(i)})
		ks[i] = k
	}
	return pts, ks
}

func TestMultiScalarMulMatchesNaive(t *testing.T) {
	for _, g := range []Group{Edwards25519(), P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			for _, n := range []int{1, 2, 7, 32, 33} {
				pts, ks := msmCase(t, g, n)
				fast := MultiScalarMul(g, pts, ks)
				slow := naiveMSM(g, pts, ks)
				if !fast.Equal(slow) {
					t.Fatalf("n=%d: fast path disagrees with naive sum", n)
				}
			}
			// Scalars outside [0, order) reduce like Mul does.
			pts, ks := msmCase(t, g, 3)
			ks[0] = new(big.Int).Add(ks[0], g.Order())
			ks[1] = new(big.Int).Neg(ks[1])
			if !MultiScalarMul(g, pts, ks).Equal(naiveMSM(g, pts, ks)) {
				t.Fatal("unreduced scalars disagree with naive sum")
			}
			// Zero scalars contribute nothing.
			if !MultiScalarMul(g, pts, []*big.Int{big.NewInt(0), big.NewInt(0), big.NewInt(0)}).IsIdentity() {
				t.Fatal("all-zero MSM is not the identity")
			}
			ks = []*big.Int{big.NewInt(0), ks[2], big.NewInt(0)}
			if !MultiScalarMul(g, pts, ks).Equal(pts[1].Mul(ks[1])) {
				t.Fatal("MSM with zero terms disagrees with the nonzero term alone")
			}
			// Scalars of very different lengths share one chain.
			ks = []*big.Int{big.NewInt(1), big.NewInt(16), ks[1]}
			if !MultiScalarMul(g, pts, ks).Equal(naiveMSM(g, pts, ks)) {
				t.Fatal("short and long scalars disagree with naive sum")
			}
		})
	}
}

func TestMultiScalarMulEmptyAndMismatch(t *testing.T) {
	g := Edwards25519()
	if !MultiScalarMul(g, nil, nil).IsIdentity() {
		t.Fatal("empty MSM is not the identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slice lengths did not panic")
		}
	}()
	MultiScalarMul(g, []Point{g.Generator()}, nil)
}

func TestRelationHolds(t *testing.T) {
	g := Edwards25519()
	a, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	neg := new(big.Int).Sub(g.Order(), a)
	good := Relation{Points: []Point{g.Generator(), g.Generator()}, Scalars: []*big.Int{a, neg}}
	if !good.Holds(g) {
		t.Fatal("a*G + (-a)*G rejected")
	}
	bad := Relation{Points: []Point{g.Generator()}, Scalars: []*big.Int{big.NewInt(1)}}
	if bad.Holds(g) {
		t.Fatal("1*G accepted as identity")
	}
}

func BenchmarkMSM32Fast(b *testing.B) {
	g := Edwards25519()
	pts := make([]Point, 32)
	ks := make([]*big.Int, 32)
	for i := range pts {
		k, err := g.RandomScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		pts[i] = g.HashToPoint("msm-bench", []byte{byte(i)})
		ks[i] = k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiScalarMul(g, pts, ks)
	}
}

func BenchmarkMSM32Naive(b *testing.B) {
	g := Edwards25519()
	pts := make([]Point, 32)
	ks := make([]*big.Int, 32)
	for i := range pts {
		k, err := g.RandomScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		pts[i] = g.HashToPoint("msm-bench", []byte{byte(i)})
		ks[i] = k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMSM(g, pts, ks)
	}
}
