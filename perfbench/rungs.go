package main

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"time"

	"thetacrypt/internal/group"
	"thetacrypt/internal/pairing"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/zkp"
)

// Crypto rungs: the public group, pairing, proof and scheme functions
// timed one call at a time, in isolation, on n=4, t=1 key material and
// the workloads' input sizes (a mid-size block-decrypt transaction, a
// beacon round name, a 32-byte wallet digest). Each rung reports the
// median time per call and the heap allocations per call.

const (
	rungPayloadBytes = (txMinBytes + txMaxBytes) / 2
	msmPoints        = 2 * committeeN
)

// rungRep counts: enough calls for a stable median while keeping all
// rungs together to a few seconds.
const (
	repsFast    = 15 // one or a few edwards25519 scalar multiplications
	repsPairing = 4  // BN254 pairings
)

// rungResult is one rung: median time per call and allocations per
// call.
type rungResult struct {
	perCall time.Duration
	allocs  float64
}

// timeRung calls fn(i) reps times, timing each call on its own.
func timeRung(reps int, fn func(i int)) rungResult {
	durs := make([]float64, reps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range durs {
		start := time.Now()
		fn(i)
		durs[i] = float64(time.Since(start))
	}
	runtime.ReadMemStats(&m1)
	return rungResult{
		perCall: time.Duration(median(durs)),
		allocs:  float64(m1.Mallocs-m0.Mallocs) / float64(reps),
	}
}

// rungNames lists every rung metric (time name; the allocation metric
// replaces the unit suffix with _allocs).
var rungNames = []string{
	"group.ed25519_mul_us", "group.msm_us",
	"pairing.pair_ms", "pairing.check_ms",
	"zkp.dleq_prove_us", "zkp.dleq_verify_us",
	"sg02.share_us", "sg02.verify_share_us", "sg02.combine_us",
	"cks05.share_us", "cks05.verify_share_us", "cks05.combine_us",
	"frost.share_us", "frost.verify_share_us", "frost.combine_us", "frost.nonce_us",
	"bls04.share_us", "bls04.verify_share_us", "bls04.combine_us", "bls04.verify_us",
}

// allocName is the allocation metric of a rung.
func allocName(rung string) string {
	return strings.TrimSuffix(strings.TrimSuffix(rung, "_us"), "_ms") + "_allocs"
}

// runRungs times every rung.
func runRungs() (map[string]rungResult, error) {
	out := map[string]rungResult{}
	g := group.Edwards25519()
	scalars := make([]*big.Int, msmPoints)
	points := make([]group.Point, msmPoints)
	for i := range scalars {
		var err error
		if scalars[i], err = g.RandomScalar(rand.Reader); err != nil {
			return nil, err
		}
		points[i] = g.HashToPoint("perfbench/rung", []byte{byte(i)})
	}
	out["group.ed25519_mul_us"] = timeRung(repsFast, func(i int) { points[i%msmPoints].Mul(scalars[i%msmPoints]) })
	out["group.msm_us"] = timeRung(repsFast, func(int) { group.MultiScalarMul(g, points, scalars) })

	k, a1, err := pairing.RandomG1(rand.Reader)
	if err != nil {
		return nil, err
	}
	b2 := pairing.G2BaseMul(k)
	if !pairing.PairingCheck(a1, pairing.G2Generator(), pairing.G1Generator(), b2) {
		return nil, fmt.Errorf("pairing rung: check rejects a valid relation")
	}
	out["pairing.pair_ms"] = timeRung(repsPairing, func(int) { pairing.Pair(a1, b2) })
	out["pairing.check_ms"] = timeRung(repsPairing, func(int) {
		pairing.PairingCheck(a1, pairing.G2Generator(), pairing.G1Generator(), b2)
	})

	x := scalars[0]
	h2 := points[1]
	g1, y1, y2 := g.Generator(), g.BaseMul(x), h2.Mul(x)
	proof, err := zkp.ProveDLEQ(rand.Reader, g, "perfbench/rung", g1, y1, h2, y2, x)
	if err != nil {
		return nil, err
	}
	out["zkp.dleq_prove_us"] = timeRung(repsFast, func(int) {
		_, _ = zkp.ProveDLEQ(rand.Reader, g, "perfbench/rung", g1, y1, h2, y2, x)
	})
	out["zkp.dleq_verify_us"] = timeRung(repsFast, func(int) {
		zkp.VerifyDLEQ(g, "perfbench/rung", g1, y1, h2, y2, proof)
	})

	for _, f := range []func(map[string]rungResult, group.Group) error{sg02Rungs, cks05Rungs, frostRungs, bls04Rungs} {
		if err := f(out, g); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sg02Rungs(out map[string]rungResult, g group.Group) error {
	pk, kss, err := sg02.Deal(rand.Reader, g, committeeT, committeeN)
	if err != nil {
		return err
	}
	msg := make([]byte, rungPayloadBytes)
	ct, err := sg02.Encrypt(rand.Reader, pk, msg, []byte("b0-tx0|1"))
	if err != nil {
		return err
	}
	dss := make([]*sg02.DecShare, committeeT+1)
	for i := range dss {
		if dss[i], err = sg02.DecryptShare(rand.Reader, pk, kss[i], ct); err != nil {
			return err
		}
	}
	if _, err := sg02.Combine(pk, ct, dss); err != nil {
		return fmt.Errorf("sg02 rung: %w", err)
	}
	out["sg02.share_us"] = timeRung(repsFast, func(int) { _, _ = sg02.DecryptShare(rand.Reader, pk, kss[0], ct) })
	out["sg02.verify_share_us"] = timeRung(repsFast, func(int) { _ = sg02.VerifyShare(pk, ct, dss[1]) })
	out["sg02.combine_us"] = timeRung(repsFast, func(int) { _, _ = sg02.Combine(pk, ct, dss) })
	return nil
}

func cks05Rungs(out map[string]rungResult, g group.Group) error {
	pk, kss, err := cks05.Deal(rand.Reader, g, committeeT, committeeN)
	if err != nil {
		return err
	}
	name := []byte(roundName(1, 1))
	css := make([]*cks05.CoinShare, committeeT+1)
	for i := range css {
		if css[i], err = cks05.Share(rand.Reader, pk, kss[i], name); err != nil {
			return err
		}
	}
	if _, err := cks05.Combine(pk, name, css); err != nil {
		return fmt.Errorf("cks05 rung: %w", err)
	}
	out["cks05.share_us"] = timeRung(repsFast, func(int) { _, _ = cks05.Share(rand.Reader, pk, kss[0], name) })
	out["cks05.verify_share_us"] = timeRung(repsFast, func(int) { _ = cks05.VerifyShare(pk, name, css[1]) })
	out["cks05.combine_us"] = timeRung(repsFast, func(int) { _, _ = cks05.Combine(pk, name, css) })
	return nil
}

func frostRungs(out map[string]rungResult, g group.Group) error {
	pk, kss, err := frost.Deal(rand.Reader, g, committeeT, committeeN)
	if err != nil {
		return err
	}
	msg := make([]byte, digestBytes)
	// One signing session per repetition: a nonce signs once.
	type session struct {
		nonces []*frost.Nonce
		comms  []*frost.NonceCommitment
		shares []*frost.SignatureShare
	}
	sessions := make([]session, repsFast)
	for s := range sessions {
		for i := 1; i <= committeeT+1; i++ {
			n, c, err := frost.GenerateNonce(rand.Reader, g, i)
			if err != nil {
				return err
			}
			sessions[s].nonces = append(sessions[s].nonces, n)
			sessions[s].comms = append(sessions[s].comms, c)
		}
	}
	for s := range sessions {
		ss := &sessions[s]
		for i := range ss.nonces {
			sh, err := frost.Sign(pk, kss[i], ss.nonces[i], msg, ss.comms)
			if err != nil {
				return err
			}
			ss.shares = append(ss.shares, sh)
		}
	}
	sig, err := frost.Combine(pk, msg, sessions[0].comms, sessions[0].shares)
	if err == nil {
		err = frost.Verify(pk, msg, sig)
	}
	if err != nil {
		return fmt.Errorf("frost rung: %w", err)
	}
	// Signing again with a session's first nonce is fine for timing.
	out["frost.share_us"] = timeRung(repsFast, func(i int) {
		_, _ = frost.Sign(pk, kss[0], sessions[i].nonces[0], msg, sessions[i].comms)
	})
	out["frost.verify_share_us"] = timeRung(repsFast, func(i int) {
		_ = frost.VerifyShare(pk, msg, sessions[i].comms, sessions[i].shares[1])
	})
	out["frost.combine_us"] = timeRung(repsFast, func(i int) {
		_, _ = frost.Combine(pk, msg, sessions[i].comms, sessions[i].shares)
	})
	out["frost.nonce_us"] = timeRung(repsFast, func(int) { _, _, _ = frost.GenerateNonce(rand.Reader, g, 1) })
	return nil
}

func bls04Rungs(out map[string]rungResult, _ group.Group) error {
	pk, kss, err := bls04.Deal(rand.Reader, committeeT, committeeN)
	if err != nil {
		return err
	}
	msg := make([]byte, digestBytes)
	sss := make([]*bls04.SigShare, committeeT+1)
	for i := range sss {
		sss[i] = bls04.SignShare(kss[i], msg)
	}
	sig, err := bls04.Combine(pk, msg, sss)
	if err != nil {
		return fmt.Errorf("bls04 rung: %w", err)
	}
	out["bls04.share_us"] = timeRung(repsPairing, func(int) { bls04.SignShare(kss[0], msg) })
	out["bls04.verify_share_us"] = timeRung(repsPairing, func(int) { _ = bls04.VerifyShare(pk, msg, sss[1]) })
	out["bls04.combine_us"] = timeRung(repsPairing, func(int) { _, _ = bls04.Combine(pk, msg, sss) })
	out["bls04.verify_us"] = timeRung(repsPairing, func(int) { _ = bls04.Verify(pk, msg, sig) })
	return nil
}

// Calls of each rung per operation, from the protocol structure: every
// one of the n nodes creates its share (FROST: the t+1 signers), checks
// its own and one more share before its quorum of t+1 is complete, and
// combines once (BLS04's combine includes verifying the signature).

func perNodeCalls(scheme string, share, verify, combine float64) map[string]float64 {
	return map[string]float64{
		scheme + ".share_us":        share,
		scheme + ".verify_share_us": verify,
		scheme + ".combine_us":      combine,
	}
}

// walletCalls weights the KG20 and BLS04 calls by the 3:1 mix.
func walletCalls() map[string]float64 {
	const kg20, bls = 0.75, 0.25
	signers := float64(committeeT + 1)
	return map[string]float64{
		"frost.share_us":        kg20 * signers,
		"frost.verify_share_us": kg20 * signers * committeeN,
		"frost.combine_us":      kg20 * committeeN,
		"frost.nonce_us":        kg20 * signers,
		"bls04.share_us":        bls * committeeN,
		"bls04.verify_share_us": bls * 2 * committeeN,
		"bls04.combine_us":      bls * committeeN,
	}
}
