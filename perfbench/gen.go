package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"thetacrypt/internal/schemes"
)

// The seeded generator: every input a workload sends is drawn here from
// the run's seed, so one seed always yields the same request stream
// (payload sizes and bytes, labels, mix order, round names) and the
// program under test sees only the generated requests.

const (
	blockTxs      = 16
	txMinBytes    = 64
	txMaxBytes    = 1024
	digestBytes   = 32
	signMixPeriod = 4 // each run of four sign requests holds exactly one BLS04
)

// stream returns a deterministic random source for one named stream of
// one seed; streams are independent of each other and of how much of
// any other stream was consumed.
func stream(seed int64, name string, index int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, name, index)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// tx is one block-decrypt transaction: its plaintext and the label it
// is encrypted and ordered under.
type tx struct {
	Label string
	Data  []byte
}

// genBlock returns block b of the seed's transaction stream: blockTxs
// transactions with payloads of txMinBytes..txMaxBytes.
func genBlock(seed int64, b int) []tx {
	r := stream(seed, "block", b)
	out := make([]tx, blockTxs)
	for i := range out {
		data := make([]byte, txMinBytes+r.Intn(txMaxBytes-txMinBytes+1))
		r.Read(data)
		out[i] = tx{Label: fmt.Sprintf("b%d-tx%d|%d", b, i, seed), Data: data}
	}
	return out
}

// roundName is the coin name of beacon round r.
func roundName(seed int64, r int) string { return fmt.Sprintf("round-%d|%d", r, seed) }

// signOp is one wallet-sign request: the scheme and the 32-byte digest
// it signs.
type signOp struct {
	Scheme  schemes.ID
	Digest  []byte
	Session string
}

// genSignOps returns the first count requests of the seed's signing
// stream: a 3:1 KG20:BLS04 mix in which every run of four requests
// holds exactly one BLS04 at a seeded position, so every prefix keeps
// the ratio and seeds differ only in order and digests.
func genSignOps(seed int64, count int) []signOp {
	r := stream(seed, "sign", 0)
	out := make([]signOp, count)
	bls := 0
	for i := range out {
		if i%signMixPeriod == 0 {
			bls = i + r.Intn(signMixPeriod)
		}
		scheme := schemes.KG20
		if i == bls {
			scheme = schemes.BLS04
		}
		d := make([]byte, digestBytes)
		r.Read(d)
		out[i] = signOp{Scheme: scheme, Digest: d, Session: fmt.Sprintf("op-%d|%d", i, seed)}
	}
	return out
}
