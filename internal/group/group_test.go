package group

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func groupsUnderTest() []Group {
	return []Group{Edwards25519(), P256()}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"edwards25519", "p256"} {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, g.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should fail")
	}
}

func TestGeneratorOnGroup(t *testing.T) {
	for _, g := range groupsUnderTest() {
		t.Run(g.Name(), func(t *testing.T) {
			gen := g.Generator()
			if gen.IsIdentity() {
				t.Fatal("generator is identity")
			}
			// Mul reduces its scalar mod the order, so order*G is the
			// identity by construction; (order-1)*G == -G is a real
			// check that G has the group's order.
			if !gen.Mul(new(big.Int).Sub(g.Order(), big.NewInt(1))).Equal(gen.Neg()) {
				t.Fatal("(order-1)*G != -G")
			}
		})
	}
}

func TestGroupLaws(t *testing.T) {
	for _, g := range groupsUnderTest() {
		t.Run(g.Name(), func(t *testing.T) {
			a, _ := g.RandomScalar(rand.Reader)
			b, _ := g.RandomScalar(rand.Reader)
			pa := g.BaseMul(a)
			pb := g.BaseMul(b)

			// Commutativity.
			if !pa.Add(pb).Equal(pb.Add(pa)) {
				t.Fatal("addition not commutative")
			}
			// Identity.
			if !pa.Add(g.Identity()).Equal(pa) {
				t.Fatal("identity not neutral")
			}
			// Inverse.
			if !pa.Add(pa.Neg()).IsIdentity() {
				t.Fatal("P + (-P) != identity")
			}
			// Distributivity of scalar multiplication:
			// (a+b)G == aG + bG.
			sum := new(big.Int).Add(a, b)
			if !g.BaseMul(sum).Equal(pa.Add(pb)) {
				t.Fatal("(a+b)G != aG + bG")
			}
			// Associativity of scalars: (ab)G == a(bG).
			ab := new(big.Int).Mul(a, b)
			if !g.BaseMul(ab).Equal(pb.Mul(a)) {
				t.Fatal("(ab)G != a(bG)")
			}
		})
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, g := range groupsUnderTest() {
		t.Run(g.Name(), func(t *testing.T) {
			k, _ := g.RandomScalar(rand.Reader)
			p := g.BaseMul(k)
			enc := p.Marshal()
			if len(enc) != g.PointLen() {
				t.Fatalf("Marshal length = %d, want %d", len(enc), g.PointLen())
			}
			q, err := g.UnmarshalPoint(enc)
			if err != nil {
				t.Fatalf("UnmarshalPoint: %v", err)
			}
			if !p.Equal(q) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, g := range groupsUnderTest() {
		t.Run(g.Name(), func(t *testing.T) {
			if _, err := g.UnmarshalPoint(nil); err == nil {
				t.Fatal("nil accepted")
			}
			if _, err := g.UnmarshalPoint(make([]byte, 5)); err == nil {
				t.Fatal("short encoding accepted")
			}
			bad := make([]byte, g.PointLen())
			for i := range bad {
				bad[i] = 0xff
			}
			if _, err := g.UnmarshalPoint(bad); err == nil {
				t.Fatal("all-ones encoding accepted")
			}
		})
	}
}

func TestHashToPoint(t *testing.T) {
	for _, g := range groupsUnderTest() {
		t.Run(g.Name(), func(t *testing.T) {
			p1 := g.HashToPoint("test", []byte("a"))
			p2 := g.HashToPoint("test", []byte("a"))
			p3 := g.HashToPoint("test", []byte("b"))
			p4 := g.HashToPoint("other", []byte("a"))
			if !p1.Equal(p2) {
				t.Fatal("hash-to-point not deterministic")
			}
			if p1.Equal(p3) || p1.Equal(p4) {
				t.Fatal("hash-to-point collisions across inputs/domains")
			}
			if p1.IsIdentity() {
				t.Fatal("hash-to-point produced identity")
			}
			if !p1.Mul(new(big.Int).Sub(g.Order(), big.NewInt(1))).Equal(p1.Neg()) {
				t.Fatal("hash-to-point output outside prime-order subgroup")
			}
		})
	}
}

func TestHashToScalarDomainSeparation(t *testing.T) {
	for _, g := range groupsUnderTest() {
		t.Run(g.Name(), func(t *testing.T) {
			s1 := g.HashToScalar("d1", []byte("x"))
			s2 := g.HashToScalar("d2", []byte("x"))
			if s1.Cmp(s2) == 0 {
				t.Fatal("domains collide")
			}
			if s1.Cmp(g.Order()) >= 0 || s1.Sign() < 0 {
				t.Fatal("scalar out of range")
			}
			// Length-prefixing must distinguish ("ab","c") from ("a","bc").
			a := g.HashToScalar("d", []byte("ab"), []byte("c"))
			b := g.HashToScalar("d", []byte("a"), []byte("bc"))
			if a.Cmp(b) == 0 {
				t.Fatal("transcript ambiguity")
			}
		})
	}
}

func TestScalarMulProperty(t *testing.T) {
	for _, g := range groupsUnderTest() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			f := func(a, b uint64) bool {
				sa := new(big.Int).SetUint64(a)
				sb := new(big.Int).SetUint64(b)
				lhs := g.BaseMul(sa).Add(g.BaseMul(sb))
				rhs := g.BaseMul(new(big.Int).Add(sa, sb))
				return lhs.Equal(rhs)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEdwardsIdentityEncoding(t *testing.T) {
	g := Edwards25519()
	id := g.Identity()
	enc := id.Marshal()
	p, err := g.UnmarshalPoint(enc)
	if err != nil {
		t.Fatalf("unmarshal identity: %v", err)
	}
	if !p.IsIdentity() {
		t.Fatal("identity round trip lost")
	}
}

func TestMulZeroAndOne(t *testing.T) {
	for _, g := range groupsUnderTest() {
		t.Run(g.Name(), func(t *testing.T) {
			gen := g.Generator()
			if !gen.Mul(big.NewInt(0)).IsIdentity() {
				t.Fatal("0*G != identity")
			}
			if !gen.Mul(big.NewInt(1)).Equal(gen) {
				t.Fatal("1*G != G")
			}
			two := gen.Mul(big.NewInt(2))
			if !two.Equal(gen.Add(gen)) {
				t.Fatal("2*G != G+G")
			}
		})
	}
}

// refMul is the binary double-and-add reference for the windowed Mul.
func refMul(p *ed25519Point, k *big.Int) *ed25519Point {
	kk := new(big.Int).Mod(k, p.pp.l)
	acc := Edwards25519().Identity().(*ed25519Point)
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc = acc.double()
		if kk.Bit(i) == 1 {
			acc = acc.add(p)
		}
	}
	return acc
}

func TestEdwardsMulMatchesDoubleAndAdd(t *testing.T) {
	g := Edwards25519()
	l := g.Order()
	add := func(a *big.Int, b int64) *big.Int { return new(big.Int).Add(a, big.NewInt(b)) }
	scalars := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(15), big.NewInt(16), big.NewInt(255),
		add(l, -1), l, add(l, 1),
		add(new(big.Int).Lsh(big.NewInt(1), 256), -1),
		big.NewInt(-7),
		new(big.Int).Neg(add(l, -3)),
	}
	for range 4 {
		k, err := g.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		scalars = append(scalars, k)
	}
	for _, p := range []*ed25519Point{
		g.Generator().(*ed25519Point),
		g.HashToPoint("mul-test", []byte("p")).(*ed25519Point),
	} {
		for _, k := range scalars {
			if !p.Mul(k).Equal(refMul(p, k)) {
				t.Fatalf("Mul(%v) disagrees with double-and-add", k)
			}
		}
	}
}

func BenchmarkScalarMult(b *testing.B) {
	for _, g := range groupsUnderTest() {
		g := g
		b.Run(g.Name(), func(b *testing.B) {
			k, _ := g.RandomScalar(rand.Reader)
			p := g.Generator()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Mul(k)
			}
		})
	}
}
