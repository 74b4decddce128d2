package main

import (
	"bytes"
	"reflect"
	"testing"

	"thetacrypt/internal/schemes"
)

func TestGeneratorDeterministic(t *testing.T) {
	if !reflect.DeepEqual(genBlock(7, 3), genBlock(7, 3)) {
		t.Fatal("same seed and block index gave different transactions")
	}
	if reflect.DeepEqual(genBlock(7, 3), genBlock(8, 3)) {
		t.Fatal("different seeds gave the same block")
	}
	if !reflect.DeepEqual(genSignOps(7, 400), genSignOps(7, 400)) {
		t.Fatal("same seed gave different signing streams")
	}
	if !reflect.DeepEqual(genSignOps(7, 10), genSignOps(7, 400)[:10]) {
		t.Fatal("a shorter signing stream is not a prefix of a longer one")
	}
	if roundName(7, 12) != "round-12|7" {
		t.Fatalf("round name %q", roundName(7, 12))
	}
}

func TestBlockShape(t *testing.T) {
	seen := map[string]bool{}
	for b := 0; b < 20; b++ {
		txs := genBlock(1, b)
		if len(txs) != blockTxs {
			t.Fatalf("block %d has %d transactions", b, len(txs))
		}
		for _, tx := range txs {
			if n := len(tx.Data); n < txMinBytes || n > txMaxBytes {
				t.Fatalf("payload of %d bytes outside %d..%d", n, txMinBytes, txMaxBytes)
			}
			if seen[tx.Label] {
				t.Fatalf("label %s repeats", tx.Label)
			}
			seen[tx.Label] = true
		}
	}
}

func TestSignMix(t *testing.T) {
	ops := genSignOps(3, 400)
	bls := 0
	for i, op := range ops {
		if op.Scheme == schemes.BLS04 {
			bls++
		}
		if len(op.Digest) != digestBytes {
			t.Fatalf("digest of %d bytes", len(op.Digest))
		}
		if i%signMixPeriod == signMixPeriod-1 && bls != (i+1)/signMixPeriod {
			t.Fatalf("after %d requests %d are BLS04, want %d", i+1, bls, (i+1)/signMixPeriod)
		}
	}
	a, b := genSignOps(3, 40), genSignOps(4, 40)
	same := true
	for i := range a {
		same = same && a[i].Scheme == b[i].Scheme && bytes.Equal(a[i].Digest, b[i].Digest)
	}
	if same {
		t.Fatal("different seeds gave the same signing stream")
	}
}
