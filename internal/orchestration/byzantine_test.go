package orchestration

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/schemes/sh00"
)

// byzCluster runs engines for every node except the adversary, whose
// mesh endpoint the test drives directly. Each engine's rejected-share
// reports are recorded.
type byzCluster struct {
	hub     *memnet.Hub
	nodes   []*keys.Keystore
	engines map[int]*Engine // mesh index -> engine

	mu       sync.Mutex
	rejected map[int][]error // mesh index -> OnRejectedShare reports
}

func newByzCluster(t *testing.T, tt, n, adversary int) *byzCluster {
	t.Helper()
	nodes, err := keys.Deal(rand.Reader, tt, n, keys.Options{RSABits: 512, UseRSAFixture: true})
	if err != nil {
		t.Fatal(err)
	}
	b := &byzCluster{
		hub:      memnet.NewHub(n, memnet.Options{}),
		nodes:    nodes,
		engines:  make(map[int]*Engine),
		rejected: make(map[int][]error),
	}
	for i := 1; i <= n; i++ {
		if i == adversary {
			continue
		}
		b.engines[i] = New(Config{
			Keys: nodes[i-1],
			Net:  b.hub.Endpoint(i),
			OnRejectedShare: func(_ string, err error) {
				b.mu.Lock()
				b.rejected[i] = append(b.rejected[i], err)
				b.mu.Unlock()
			},
		})
	}
	t.Cleanup(func() {
		for _, e := range b.engines {
			e.Stop()
		}
		b.hub.Close()
	})
	return b
}

// reports returns a copy of the rejection reports of engine i.
func (b *byzCluster) reports(i int) []error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.rejected[i])
}

// wantNamedRejection checks that engine i counted exactly one invalid
// share and reported it as a RejectedError naming sender.
func (b *byzCluster) wantNamedRejection(t *testing.T, i, sender int) {
	t.Helper()
	if got := b.engines[i].Stats().RejectedShares; got != 1 {
		t.Fatalf("engine %d counted %d rejected shares, want 1", i, got)
	}
	reps := b.reports(i)
	var rej *protocols.RejectedError
	if len(reps) != 1 || !errors.As(reps[0], &rej) || !slices.Equal(rej.Senders, []int{sender}) {
		t.Fatalf("engine %d rejection reports %v, want one naming sender %d", i, reps, sender)
	}
}

// forgedSignatureShare returns a decodable signature share for node
// index that fails verification: BLS04 signed under a shifted key
// share, SH00 with its share value scaled.
func forgedSignatureShare(t *testing.T, node *keys.Keystore, scheme schemes.ID, msg []byte) []byte {
	t.Helper()
	switch scheme {
	case schemes.BLS04:
		ks := keys.MustShare[bls04.KeyShare](node, scheme)
		ks.X = new(big.Int).Add(ks.X, big.NewInt(1))
		return bls04.SignShare(ks, msg).Marshal()
	case schemes.SH00:
		pk := keys.MustPublic[*sh00.PublicKey](node, scheme)
		ss, err := sh00.SignShare(rand.Reader, pk, keys.MustShare[sh00.KeyShare](node, scheme), msg)
		if err != nil {
			t.Fatal(err)
		}
		ss.Xi = new(big.Int).Mod(new(big.Int).Lsh(ss.Xi, 2), pk.N)
		return ss.Marshal()
	}
	t.Fatalf("no forgery for %s", scheme)
	return nil
}

// verifySignature checks a result value under the scheme's public key.
func verifySignature(t *testing.T, node *keys.Keystore, scheme schemes.ID, msg, value []byte) {
	t.Helper()
	var err error
	switch scheme {
	case schemes.BLS04:
		var sig *bls04.Signature
		if sig, err = bls04.UnmarshalSignature(value); err == nil {
			err = bls04.Verify(keys.MustPublic[*bls04.PublicKey](node, scheme), msg, sig)
		}
	case schemes.SH00:
		var sig *sh00.Signature
		if sig, err = sh00.UnmarshalSignature(value); err == nil {
			err = sh00.Verify(keys.MustPublic[*sh00.PublicKey](node, scheme), msg, sig)
		}
	case schemes.KG20:
		pk := keys.MustPublic[*frost.PublicKey](node, scheme)
		var sig *frost.Signature
		if sig, err = frost.UnmarshalSignature(pk.Group, value); err == nil {
			err = frost.Verify(pk, msg, sig)
		}
	}
	if err != nil {
		t.Fatalf("%s result does not verify: %v", scheme, err)
	}
}

// TestAggregateFirstSignatureSurvivesInvalidShare: a Byzantine node's
// decodable but invalid BLS04/SH00 share is parked unverified, fails
// the combined signature's check, and is then identified by per-share
// verification. Every honest node still outputs a valid signature, and
// counts the rejection naming the adversary.
func TestAggregateFirstSignatureSurvivesInvalidShare(t *testing.T) {
	for _, scheme := range []schemes.ID{schemes.BLS04, schemes.SH00} {
		t.Run(string(scheme), func(t *testing.T) {
			const adversary = 4
			b := newByzCluster(t, 1, 4, adversary)
			req := protocols.Request{Scheme: scheme, Op: protocols.OpSign, Payload: []byte("byzantine " + scheme)}
			forged := network.Envelope{
				Instance: req.InstanceID(), Kind: network.KindProto, Round: 1, Gen: 1,
				Payload: forgedSignatureShare(t, b.nodes[adversary-1], scheme, req.Payload),
			}
			if err := b.hub.Endpoint(adversary).Broadcast(context.Background(), forged); err != nil {
				t.Fatal(err)
			}
			// The forged share parks on every engine before any honest
			// one, so it is part of each engine's first quorum.
			for i, e := range b.engines {
				waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 1 },
					fmt.Sprintf("forged share never parked on engine %d", i))
			}
			futures := make(map[int]*Future)
			for i, e := range b.engines {
				f, err := e.Submit(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				futures[i] = f
			}
			for i, f := range futures {
				res := waitAll(t, []*Future{f})[0]
				verifySignature(t, b.nodes[i-1], scheme, req.Payload, res.Value)
				b.wantNamedRejection(t, i, adversary)
			}
		})
	}
}

// TestCorruptedOwnShareFailsLocally: a node whose own key share is
// corrupted fails its instance with a local error — its invalid share
// is never treated as a peer's fault — while the honest nodes reject
// that share and still sign.
func TestCorruptedOwnShareFailsLocally(t *testing.T) {
	const corrupt = 1
	b := newByzCluster(t, 1, 4, 0)
	k, err := b.nodes[corrupt-1].Get(schemes.BLS04, "")
	if err != nil {
		t.Fatal(err)
	}
	ks := k.Share.(bls04.KeyShare)
	ks.X = new(big.Int).Add(ks.X, big.NewInt(1))
	k.Share = ks

	req := protocols.Request{Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: []byte("corrupted own share")}
	futures := make(map[int]*Future)
	for i, e := range b.engines {
		f, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		futures[i] = f
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, f := range futures {
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if i == corrupt {
			if res.Err == nil || errors.Is(res.Err, protocols.ErrShareRejected) {
				t.Fatalf("corrupted node: result error %v, want a local failure", res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("engine %d: %v", i, res.Err)
		}
		verifySignature(t, b.nodes[i-1], schemes.BLS04, req.Payload, res.Value)
	}
}

// TestCorruptedKeyShareFailsLocally: SG02 and CKS05 record the share a
// node creates itself without verifying it, trusting the once-per-epoch
// check of the node's key share against its verification key. A node
// whose key share fails that check fails the instance with a local
// error, not as a rejected share, and the other nodes still output the
// right plaintext or coin.
func TestCorruptedKeyShareFailsLocally(t *testing.T) {
	const corrupt = 1
	t.Run("SG02", func(t *testing.T) {
		b := newByzCluster(t, 1, 4, 0)
		msg := []byte("sealed under a corrupted share")
		ct, err := sg02.Encrypt(rand.Reader, keys.MustPublic[*sg02.PublicKey](b.nodes[0], schemes.SG02), msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		req := protocols.Request{Scheme: schemes.SG02, Op: protocols.OpDecrypt, Payload: ct.Marshal()}
		for i, v := range b.runWithCorruptKeyShare(t, corrupt, req) {
			if !bytes.Equal(v, msg) {
				t.Fatalf("engine %d decrypted %q", i, v)
			}
		}
	})

	t.Run("CKS05", func(t *testing.T) {
		b := newByzCluster(t, 1, 4, 0)
		name := []byte("coin under a corrupted share")
		// The right coin, combined from two honest nodes' shares.
		pk := keys.MustPublic[*cks05.PublicKey](b.nodes[1], schemes.CKS05)
		var css []*cks05.CoinShare
		for _, node := range b.nodes[1:3] {
			hk, err := node.Get(schemes.CKS05, "")
			if err != nil {
				t.Fatal(err)
			}
			cs, err := cks05.Share(rand.Reader, pk, hk.Share.(cks05.KeyShare), name)
			if err != nil {
				t.Fatal(err)
			}
			css = append(css, cs)
		}
		want, err := cks05.Combine(pk, name, css)
		if err != nil {
			t.Fatal(err)
		}
		req := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: name}
		for i, v := range b.runWithCorruptKeyShare(t, corrupt, req) {
			if !bytes.Equal(v, want) {
				t.Fatalf("engine %d coin %x, want %x", i, v, want)
			}
		}
	})
}

// runWithCorruptKeyShare shifts node corrupt's key share for
// req.Scheme, submits req on every engine, checks that engine corrupt
// failed it with a local key-share error, and returns the other
// engines' result values.
func (b *byzCluster) runWithCorruptKeyShare(t *testing.T, corrupt int, req protocols.Request) map[int][]byte {
	t.Helper()
	k, err := b.nodes[corrupt-1].Get(req.Scheme, "")
	if err != nil {
		t.Fatal(err)
	}
	switch ks := k.Share.(type) {
	case sg02.KeyShare:
		ks.X = new(big.Int).Add(ks.X, big.NewInt(1))
		k.Share = ks
	case cks05.KeyShare:
		ks.X = new(big.Int).Add(ks.X, big.NewInt(1))
		k.Share = ks
	default:
		t.Fatalf("no corruption for %T", k.Share)
	}
	futures := make(map[int]*Future)
	for i, e := range b.engines {
		f, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		futures[i] = f
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	values := make(map[int][]byte)
	for i, f := range futures {
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if i == corrupt {
			if !errors.Is(res.Err, protocols.ErrKeyShareMismatch) || errors.Is(res.Err, protocols.ErrShareRejected) {
				t.Fatalf("corrupted node: result error %v, want a local key-share failure", res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("engine %d: %v", i, res.Err)
		}
		values[i] = res.Value
	}
	return values
}

// TestForgedFrostShareRejectedAndAttributed: a FROST signer sends a
// well-formed but forged signature share. The aggregated signature
// fails its check, per-share verification attributes the fault to
// that signer on every honest node, and no signature is emitted while
// the forged share is all the signer sent. FROST is not robust, so the
// instance keeps waiting; once the signer sends its genuine share, the
// run completes with a valid signature.
func TestForgedFrostShareRejectedAndAttributed(t *testing.T) {
	const adversary = 2 // a member of the fixed signer group {1, 2}
	b := newByzCluster(t, 1, 4, adversary)
	req := protocols.Request{Scheme: schemes.KG20, Op: protocols.OpSign, Payload: []byte("forged frost share")}
	id := req.InstanceID()

	// The adversary runs the honest protocol for its share index and
	// forges only its round-2 share, keeping the genuine one.
	advNet := b.hub.Endpoint(adversary)
	adv, err := protocols.New(rand.Reader, b.nodes[adversary-1], req)
	if err != nil {
		t.Fatal(err)
	}
	genuine := make(chan []byte, 1)
	send := func(round int, payload []byte) {
		env := network.Envelope{Instance: id, Kind: network.KindProto, Round: round, Gen: 1, Payload: payload}
		if err := advNet.Broadcast(context.Background(), env); err != nil {
			t.Error(err)
		}
	}
	emit := func(out *protocols.RoundOutput) {
		if out == nil {
			return
		}
		if out.Round != 2 {
			send(out.Round, out.Payload)
			return
		}
		ss, err := frost.UnmarshalSignatureShare(out.Payload)
		if err != nil {
			t.Error(err)
			return
		}
		genuine <- out.Payload
		order := keys.MustPublic[*frost.PublicKey](b.nodes[0], schemes.KG20).Group.Order()
		ss.Z = new(big.Int).Mod(new(big.Int).Add(ss.Z, big.NewInt(1)), order)
		send(2, ss.Marshal())
	}
	go func() {
		for env := range advNet.Receive() {
			if env.Instance != id {
				continue
			}
			switch env.Kind {
			case network.KindStart:
				out, err := adv.DoRound()
				if err != nil {
					t.Error(err)
					return
				}
				emit(out)
			case network.KindProto:
				_ = adv.Update(protocols.ProtocolMessage{Sender: env.From, Round: env.Round, Payload: env.Payload})
				for adv.IsReadyForNextRound() {
					out, err := adv.DoRound()
					if err != nil {
						t.Error(err)
						return
					}
					emit(out)
				}
			}
		}
	}()

	f1, err := b.engines[1].Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	futures := map[int]*Future{1: f1, 3: b.engines[3].Attach(id), 4: b.engines[4].Attach(id)}
	for i, e := range b.engines {
		waitUntil(t, 10*time.Second, func() bool { return e.Stats().RejectedShares >= 1 },
			fmt.Sprintf("forged share never rejected on engine %d", i))
	}
	for i, f := range futures {
		select {
		case res := <-f.Done():
			t.Fatalf("engine %d emitted a result from a forged share: %+v", i, res)
		default:
		}
		b.wantNamedRejection(t, i, adversary)
	}

	// The genuine share completes the run on every honest node.
	var payload []byte
	select {
	case payload = <-genuine:
	case <-time.After(10 * time.Second):
		t.Fatal("adversary never produced its share")
	}
	send(2, payload)
	for i, f := range futures {
		res := waitAll(t, []*Future{f})[0]
		verifySignature(t, b.nodes[i-1], schemes.KG20, req.Payload, res.Value)
	}
}
