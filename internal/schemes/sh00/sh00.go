// Package sh00 implements Shoup's practical threshold RSA signature
// scheme (SH00): the first non-interactive robust threshold signature.
// Signature shares are x^{2Δs_i} for x = H(m) and Δ = l!, each
// accompanied by a zero-knowledge proof of correctness (a discrete-log
// equality proof in the hidden-order group), and shares combine through
// integer Lagrange interpolation plus one extended-Euclid step.
//
// Key material uses a modulus n = pq of safe primes (p = 2p'+1,
// q = 2q'+1); the secret exponent d = e^{-1} mod m with m = p'q' is
// Shamir-shared over Z_m. The paper benchmarks moduli of 512, 1024,
// 2048, and 4096 bits; GenerateKey produces fresh keys and FixedTestKey
// returns embedded deterministic fixtures so tests and benchmarks avoid
// minutes-long safe-prime searches.
package sh00

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// Scheme-level errors suitable for errors.Is matching.
var (
	ErrInvalidShare     = errors.New("sh00: invalid signature share")
	ErrInvalidSignature = errors.New("sh00: invalid signature")
)

// secparam is the bit length of the Fiat-Shamir challenge in the share
// correctness proof (L1 in Shoup's paper).
const secparam = 128

// PublicKey holds the RSA threshold verification data.
type PublicKey struct {
	// N is the RSA modulus, E the public exponent.
	N *big.Int
	E *big.Int
	// V generates the subgroup of squares; VK[i-1] = V^{s_i} are the
	// per-party verification keys.
	V  *big.Int
	VK []*big.Int
	// T is the threshold (quorum T+1), NParties the group size.
	T        int
	NParties int
	// Delta = NParties! clears Lagrange denominators.
	Delta *big.Int
}

// KeyShare is party i's share s_i of the secret exponent.
type KeyShare struct {
	Index int
	S     *big.Int
}

// GenerateKey creates a fresh threshold RSA key with the given modulus
// size. Safe-prime generation dominates the cost (minutes at 2048+ bits).
func GenerateKey(rand io.Reader, bits, t, n int) (*PublicKey, []KeyShare, error) {
	if bits < 128 {
		return nil, nil, fmt.Errorf("sh00: modulus size %d too small", bits)
	}
	p, pp, err := mathutil.SafePrime(rand, bits/2)
	if err != nil {
		return nil, nil, fmt.Errorf("safe prime p: %w", err)
	}
	q, qq, err := mathutil.SafePrime(rand, bits/2)
	if err != nil {
		return nil, nil, fmt.Errorf("safe prime q: %w", err)
	}
	for p.Cmp(q) == 0 {
		if q, qq, err = mathutil.SafePrime(rand, bits/2); err != nil {
			return nil, nil, fmt.Errorf("safe prime q: %w", err)
		}
	}
	return dealFromPrimes(rand, p, pp, q, qq, t, n)
}

// dealFromPrimes derives the full key material from safe primes
// p = 2p'+1, q = 2q'+1.
func dealFromPrimes(rand io.Reader, p, pp, q, qq *big.Int, t, n int) (*PublicKey, []KeyShare, error) {
	if err := share.ValidateParams(t, n); err != nil {
		return nil, nil, err
	}
	modulus := new(big.Int).Mul(p, q)
	m := new(big.Int).Mul(pp, qq)
	e := big.NewInt(65537)
	if big.NewInt(int64(n)).Cmp(e) >= 0 {
		return nil, nil, fmt.Errorf("sh00: group size %d must be below public exponent %v", n, e)
	}
	d, err := mathutil.InvMod(e, m)
	if err != nil {
		return nil, nil, fmt.Errorf("sh00: e not invertible mod m: %w", err)
	}
	shares, err := share.Split(rand, d, t, n, m)
	if err != nil {
		return nil, nil, err
	}
	// V must generate the squares Q_n: a random square does with
	// overwhelming probability.
	r, err := mathutil.RandNonZero(rand, modulus)
	if err != nil {
		return nil, nil, err
	}
	v := mathutil.MulMod(r, r, modulus)
	pk := &PublicKey{
		N: modulus, E: e, V: v,
		VK: make([]*big.Int, n), T: t, NParties: n,
		Delta: mathutil.Factorial(n),
	}
	ks := make([]KeyShare, n)
	for i, s := range shares {
		ks[i] = KeyShare{Index: s.Index, S: s.Value}
		pk.VK[i] = new(big.Int).Exp(v, s.Value, modulus)
	}
	return pk, ks, nil
}

// digest maps a message into Z_n by counter-extended hashing (full
// domain hash).
func digest(pk *PublicKey, msg []byte) *big.Int {
	need := (pk.N.BitLen() + 7) / 8
	out := make([]byte, 0, need+sha256.Size)
	for ctr := uint32(0); len(out) < need; ctr++ {
		h := sha256.New()
		h.Write([]byte("sh00/fdh"))
		h.Write([]byte{byte(ctr >> 24), byte(ctr >> 16), byte(ctr >> 8), byte(ctr)})
		h.Write(msg)
		out = h.Sum(out)
	}
	x := new(big.Int).SetBytes(out[:need])
	return x.Mod(x, pk.N)
}

// SigShare is party i's signature share x_i = x^{2Δs_i} with the Shoup
// correctness proof (challenge C, response Z).
type SigShare struct {
	Index int
	Xi    *big.Int
	C     *big.Int
	Z     *big.Int
}

// Signature is a standard RSA signature y with y^e = H(m) mod n.
type Signature struct {
	Y *big.Int
}

// SignShare produces party i's signature share with its correctness
// proof.
func SignShare(rand io.Reader, pk *PublicKey, ks KeyShare, msg []byte) (*SigShare, error) {
	x := digest(pk, msg)
	exp := new(big.Int).Lsh(new(big.Int).Mul(pk.Delta, ks.S), 1) // 2Δs_i
	xi := new(big.Int).Exp(x, exp, pk.N)

	// Shoup's proof of discrete-log equality between (v, v_i) and
	// (x~, xi^2) with x~ = x^{4Δ}:
	xt := new(big.Int).Exp(x, new(big.Int).Lsh(pk.Delta, 2), pk.N)
	// r is sampled from [0, 2^(|n|+2*secparam)).
	bound := new(big.Int).Lsh(big.NewInt(1), uint(pk.N.BitLen())+2*secparam)
	r, err := mathutil.RandInt(rand, bound)
	if err != nil {
		return nil, fmt.Errorf("proof nonce: %w", err)
	}
	vp := new(big.Int).Exp(pk.V, r, pk.N)
	xp := new(big.Int).Exp(xt, r, pk.N)
	xi2 := mathutil.MulMod(xi, xi, pk.N)
	c := proofChallenge(pk, pk.VK[ks.Index-1], xt, xi2, vp, xp)
	// z = s_i*c + r over the integers.
	z := new(big.Int).Add(new(big.Int).Mul(ks.S, c), r)
	return &SigShare{Index: ks.Index, Xi: xi, C: c, Z: z}, nil
}

// CheckShare runs the structural checks of VerifyShare — components
// present and in range, the index naming a party — without the
// correctness proof. Combine's check of the assembled signature covers
// the proof's purpose for every share it used.
func CheckShare(pk *PublicKey, ss *SigShare) error {
	if ss == nil || ss.Xi == nil || ss.C == nil || ss.Z == nil ||
		ss.Index < 1 || ss.Index > pk.NParties {
		return ErrInvalidShare
	}
	if ss.Z.Sign() < 0 || ss.Xi.Sign() <= 0 || ss.Xi.Cmp(pk.N) >= 0 {
		return ErrInvalidShare
	}
	return nil
}

// VerifyShare checks the Shoup correctness proof of a signature share.
func VerifyShare(pk *PublicKey, msg []byte, ss *SigShare) error {
	if err := CheckShare(pk, ss); err != nil {
		return err
	}
	x := digest(pk, msg)
	xt := new(big.Int).Exp(x, new(big.Int).Lsh(pk.Delta, 2), pk.N)
	xi2 := mathutil.MulMod(ss.Xi, ss.Xi, pk.N)
	vi := pk.VK[ss.Index-1]
	// v' = v^z * v_i^{-c}, x' = xt^z * (xi^2)^{-c}
	vp := mathutil.MulMod(
		new(big.Int).Exp(pk.V, ss.Z, pk.N),
		mathutil.ExpMod(vi, new(big.Int).Neg(ss.C), pk.N), pk.N)
	xp := mathutil.MulMod(
		new(big.Int).Exp(xt, ss.Z, pk.N),
		mathutil.ExpMod(xi2, new(big.Int).Neg(ss.C), pk.N), pk.N)
	if proofChallenge(pk, vi, xt, xi2, vp, xp).Cmp(ss.C) != 0 {
		return ErrInvalidShare
	}
	return nil
}

func proofChallenge(pk *PublicKey, vi, xt, xi2, vp, xp *big.Int) *big.Int {
	h := sha256.New()
	for _, v := range []*big.Int{pk.V, xt, vi, xi2, vp, xp} {
		b := v.Bytes()
		var lenbuf [4]byte
		lenbuf[0], lenbuf[1], lenbuf[2], lenbuf[3] = byte(len(b)>>24), byte(len(b)>>16), byte(len(b)>>8), byte(len(b))
		h.Write(lenbuf[:])
		h.Write(b)
	}
	c := new(big.Int).SetBytes(h.Sum(nil))
	return c.Rsh(c, sha256.Size*8-secparam) // top secparam bits of the digest
}

// Combine assembles t+1 signature shares into a standard RSA signature
// and verifies it against the public key.
func Combine(pk *PublicKey, msg []byte, shares []*SigShare) (*Signature, error) {
	if len(shares) < pk.T+1 {
		return nil, share.ErrNotEnoughShares
	}
	chosen := make(map[int]*big.Int, pk.T+1)
	for _, ss := range shares {
		if len(chosen) == pk.T+1 {
			break
		}
		chosen[ss.Index] = ss.Xi
	}
	if len(chosen) < pk.T+1 {
		return nil, share.ErrDuplicateIndex
	}
	subset := make([]int, 0, len(chosen))
	for idx := range chosen {
		subset = append(subset, idx)
	}
	x := digest(pk, msg)
	// w = Π x_i^{2 λ_i} with integer Lagrange coefficients; then
	// w^e = x^{4Δ²}, and extended Euclid on (e, 4Δ²) finishes.
	w := big.NewInt(1)
	for idx, xi := range chosen {
		lambda, err := share.IntegerLagrangeCoefficient(pk.Delta, idx, subset)
		if err != nil {
			return nil, err
		}
		w = mathutil.MulMod(w, mathutil.ExpMod(xi, new(big.Int).Lsh(lambda, 1), pk.N), pk.N)
	}
	eprime := new(big.Int).Lsh(new(big.Int).Mul(pk.Delta, pk.Delta), 2) // 4Δ²
	gcd, a, b := new(big.Int), new(big.Int), new(big.Int)
	gcd.GCD(a, b, pk.E, eprime)
	if gcd.Cmp(big.NewInt(1)) != 0 {
		return nil, fmt.Errorf("sh00: gcd(e, 4Δ²) = %v, want 1", gcd)
	}
	// With a*e + b*e' = 1 and w^e = x^{e'}: (w^b x^a)^e = x^{e'b + ea} = x.
	y := mathutil.MulMod(mathutil.ExpMod(w, b, pk.N), mathutil.ExpMod(x, a, pk.N), pk.N)
	sig := &Signature{Y: y}
	if err := Verify(pk, msg, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// Verify checks y^e == H(m) mod n.
func Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	if sig == nil || sig.Y == nil || sig.Y.Sign() <= 0 || sig.Y.Cmp(pk.N) >= 0 {
		return ErrInvalidSignature
	}
	if new(big.Int).Exp(sig.Y, pk.E, pk.N).Cmp(digest(pk, msg)) != 0 {
		return ErrInvalidSignature
	}
	return nil
}

// Marshal encodes the signature share.
func (ss *SigShare) Marshal() []byte {
	return wire.NewWriter().Int(ss.Index).BigInt(ss.Xi).BigInt(ss.C).BigInt(ss.Z).Out()
}

// UnmarshalSigShare decodes a signature share.
func UnmarshalSigShare(data []byte) (*SigShare, error) {
	r := wire.NewReader(data)
	ss := &SigShare{Index: r.Int(), Xi: r.BigInt(), C: r.BigInt(), Z: r.BigInt()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sh00 share: %w", err)
	}
	return ss, nil
}

// Marshal encodes the signature.
func (sig *Signature) Marshal() []byte { return wire.NewWriter().BigInt(sig.Y).Out() }

// UnmarshalSignature decodes a signature.
func UnmarshalSignature(data []byte) (*Signature, error) {
	r := wire.NewReader(data)
	y := r.BigInt()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sh00 signature: %w", err)
	}
	return &Signature{Y: y}, nil
}
