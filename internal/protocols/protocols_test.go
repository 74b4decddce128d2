package protocols

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"thetacrypt/internal/dkg"
	"thetacrypt/internal/group"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
)

func dealNodes(t *testing.T, tt, n int, ids ...schemes.ID) []*keys.Keystore {
	t.Helper()
	nodes, err := keys.Deal(rand.Reader, tt, n, keys.Options{
		RSABits: 512, UseRSAFixture: true, Schemes: ids,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// drive runs a set of TRI instances to completion by shuttling their
// messages directly, without any network.
func drive(t *testing.T, protos []Protocol) [][]byte {
	t.Helper()
	type pending struct {
		sender int
		out    *RoundOutput
	}
	var queue []pending
	for i, p := range protos {
		out, err := p.DoRound()
		if err != nil {
			t.Fatalf("node %d DoRound: %v", i+1, err)
		}
		if out != nil {
			queue = append(queue, pending{sender: i + 1, out: out})
		}
	}
	results := make([][]byte, len(protos))
	for steps := 0; steps < 10000; steps++ {
		allDone := true
		for i := range protos {
			if results[i] == nil {
				allDone = false
			}
		}
		if allDone {
			return results
		}
		if len(queue) == 0 {
			t.Fatal("deadlock: no messages in flight and not all finalized")
		}
		msg := queue[0]
		queue = queue[1:]
		for i, p := range protos {
			if i+1 == msg.sender {
				continue
			}
			if results[i] != nil {
				continue
			}
			err := p.Update(ProtocolMessage{Sender: msg.sender, Round: msg.out.Round, Payload: msg.out.Payload})
			if err != nil && !errors.Is(err, ErrShareRejected) {
				t.Fatalf("node %d update: %v", i+1, err)
			}
			for p.IsReadyForNextRound() {
				out, err := p.DoRound()
				if err != nil {
					t.Fatalf("node %d DoRound: %v", i+1, err)
				}
				if out != nil {
					queue = append(queue, pending{sender: i + 1, out: out})
				}
			}
			if p.IsReadyToFinalize() {
				val, err := p.Finalize()
				if err != nil {
					t.Fatalf("node %d finalize: %v", i+1, err)
				}
				results[i] = val
			}
		}
	}
	t.Fatal("drive did not converge")
	return nil
}

func TestRequestInstanceIDDeterministic(t *testing.T) {
	r1 := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: []byte("x")}
	r2 := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: []byte("x")}
	if r1.InstanceID() != r2.InstanceID() {
		t.Fatal("identical requests produced different IDs")
	}
	r3 := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: []byte("y")}
	if r1.InstanceID() == r3.InstanceID() {
		t.Fatal("different payloads collided")
	}
	r4 := Request{Scheme: schemes.SH00, Op: OpSign, Payload: []byte("x")}
	if r1.InstanceID() == r4.InstanceID() {
		t.Fatal("different schemes collided")
	}
}

func TestRequestMarshalRoundTrip(t *testing.T) {
	r := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("name"), Session: "s"}
	got, err := UnmarshalRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.InstanceID() != r.InstanceID() {
		t.Fatal("round trip changed instance ID")
	}
	if _, err := UnmarshalRequest([]byte("junk")); err == nil {
		t.Fatal("junk request decoded")
	}
}

func TestUnsupportedCombos(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.BLS04)
	bad := []Request{
		{Scheme: schemes.BLS04, Op: OpDecrypt},
		{Scheme: schemes.CKS05, Op: OpSign},
		{Scheme: "NOPE", Op: OpSign},
		{Scheme: schemes.SG02, Op: OpDecrypt}, // no SG02 keys dealt
	}
	for _, req := range bad {
		if _, err := New(rand.Reader, nodes[0], req); err == nil {
			t.Fatalf("request %v accepted", req)
		}
	}
}

func TestNonInteractiveTRISemantics(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.CKS05)
	protos := make([]Protocol, len(nodes))
	req := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("tri")}
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req)
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = p
		if p.IsReadyToFinalize() {
			t.Fatal("ready to finalize before DoRound")
		}
		if _, err := p.Finalize(); !errors.Is(err, ErrNotReady) {
			t.Fatal("early finalize did not report ErrNotReady")
		}
	}
	results := drive(t, protos)
	for _, r := range results[1:] {
		if string(r) != string(results[0]) {
			t.Fatal("nodes disagree on coin value")
		}
	}
	// A second DoRound on a finalized instance errors.
	if _, err := protos[0].DoRound(); !errors.Is(err, ErrAlreadyFinalized) {
		t.Fatalf("want ErrAlreadyFinalized, got %v", err)
	}
}

func TestFrostTRITwoRounds(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.KG20)
	protos := make([]Protocol, len(nodes))
	req := Request{Scheme: schemes.KG20, Op: OpSign, Payload: []byte("frost tri")}
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req)
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = p
	}
	results := drive(t, protos)
	fpk := keys.MustPublic[*frost.PublicKey](nodes[0], schemes.KG20)
	sig, err := frost.UnmarshalSignature(fpk.Group, results[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := frost.Verify(fpk, []byte("frost tri"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestFrostPrecomputedSkipsRound1(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.KG20)
	pk := keys.MustPublic[*frost.PublicKey](nodes[0], schemes.KG20)
	g := pk.Group
	quorum := pk.T + 1
	// Pre-exchange commitments for the signer group.
	nonces := make([]*frost.Nonce, quorum)
	comms := make([]*frost.NonceCommitment, quorum)
	for i := 0; i < quorum; i++ {
		n, c, err := frost.GenerateNonce(rand.Reader, g, i+1)
		if err != nil {
			t.Fatal(err)
		}
		nonces[i], comms[i] = n, c
	}
	msg := []byte("one round")
	// Assertion instance: with precomputed commitments the very first
	// DoRound emits a round-2 signature share, no commitment exchange.
	probe := NewFrost(rand.Reader, pk, keys.MustShare[frost.KeyShare](nodes[0], schemes.KG20), msg, nonces[0], comms)
	out, err := probe.DoRound()
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Round != 2 {
		t.Fatalf("expected round-2 output, got %+v", out)
	}

	protos := make([]Protocol, len(nodes))
	for i, nk := range nodes {
		var nonce *frost.Nonce
		if i < quorum {
			nonce = nonces[i]
		} else {
			nonce = nonces[0] // non-signers ignore the nonce
		}
		protos[i] = NewFrost(rand.Reader, pk, keys.MustShare[frost.KeyShare](nk, schemes.KG20), msg, nonce, comms)
	}
	results := drive(t, protos)
	sig, err := frost.UnmarshalSignature(g, results[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := frost.Verify(pk, msg, sig); err != nil {
		t.Fatal(err)
	}
}

func TestRejectedSharesSurfaceButDoNotKill(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.CKS05)
	req := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("byz")}
	p, err := New(rand.Reader, nodes[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DoRound(); err != nil {
		t.Fatal(err)
	}
	err = p.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: []byte("garbage")})
	if !errors.Is(err, ErrShareRejected) {
		t.Fatalf("want ErrShareRejected, got %v", err)
	}
	if p.IsReadyToFinalize() {
		t.Fatal("garbage share advanced the quorum")
	}
}

// TestAggregateFirstFallback pins the BLS04 verification order: a
// decodable but invalid peer share parks unverified, the combined
// signature's check fails, per-share verification drops that share and
// Finalize names its sender — then the instance keeps waiting and a
// valid share completes it.
func TestAggregateFirstFallback(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.BLS04)
	msg := []byte("aggregate first")
	req := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: msg}
	p, err := New(rand.Reader, nodes[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DoRound(); err != nil {
		t.Fatal(err)
	}
	forgedKey := keys.MustShare[bls04.KeyShare](nodes[3], schemes.BLS04)
	forgedKey.X = new(big.Int).Add(forgedKey.X, big.NewInt(1))
	if err := p.Update(ProtocolMessage{Sender: 4, Round: 1, Payload: bls04.SignShare(forgedKey, msg).Marshal()}); err != nil {
		t.Fatalf("decodable share rejected before the aggregate check: %v", err)
	}
	if !p.IsReadyToFinalize() {
		t.Fatal("quorum of own + forged share not ready")
	}
	_, err = p.Finalize()
	var rej *RejectedError
	if !errors.As(err, &rej) || !errors.Is(err, ErrShareRejected) || len(rej.Senders) != 1 || rej.Senders[0] != 4 {
		t.Fatalf("Finalize after forged share: %v, want a rejection naming sender 4", err)
	}
	if p.IsReadyToFinalize() {
		t.Fatal("dropped share still counts toward the quorum")
	}
	honest := bls04.SignShare(keys.MustShare[bls04.KeyShare](nodes[1], schemes.BLS04), msg)
	if err := p.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: honest.Marshal()}); err != nil {
		t.Fatal(err)
	}
	out, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := bls04.UnmarshalSignature(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := bls04.Verify(keys.MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04), msg, sig); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateFirstOwnShareQuorum: with t = 0 the node's own share is
// the whole quorum, and the instance finishes on it alone.
func TestAggregateFirstOwnShareQuorum(t *testing.T) {
	nodes := dealNodes(t, 0, 1, schemes.BLS04, schemes.SH00)
	for _, scheme := range []schemes.ID{schemes.BLS04, schemes.SH00} {
		p, err := New(rand.Reader, nodes[0], Request{Scheme: scheme, Op: OpSign, Payload: []byte("solo")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.DoRound(); err != nil {
			t.Fatal(err)
		}
		if !p.IsReadyToFinalize() {
			t.Fatalf("%s: own share alone is not a t = 0 quorum", scheme)
		}
		if _, err := p.Finalize(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

// TestKeyShareMismatchFailsLocally: SG02, BZ03 and CKS05 record the
// share a node creates itself without verifying it, so an instance on a
// key share that does not match its verification key must fail before
// any share is created, as a local error rather than a rejected share.
func TestKeyShareMismatchFailsLocally(t *testing.T) {
	nodes := dealNodes(t, 1, 3, schemes.SG02, schemes.BZ03, schemes.CKS05)
	sgCT, err := sg02.Encrypt(rand.Reader, keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02), []byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	bzCT, err := bz03.Encrypt(rand.Reader, keys.MustPublic[*bz03.PublicKey](nodes[0], schemes.BZ03), []byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	bump := func(x *big.Int) *big.Int { return new(big.Int).Add(x, big.NewInt(1)) }
	for _, req := range []Request{
		{Scheme: schemes.SG02, Op: OpDecrypt, Payload: sgCT.Marshal()},
		{Scheme: schemes.BZ03, Op: OpDecrypt, Payload: bzCT.Marshal()},
		{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("coin")},
	} {
		if _, err := New(rand.Reader, nodes[0], req); err != nil {
			t.Fatalf("%s with a matching key share: %v", req.Scheme, err)
		}
		k, err := nodes[0].Get(req.Scheme, "")
		if err != nil {
			t.Fatal(err)
		}
		switch ks := k.Share.(type) {
		case sg02.KeyShare:
			ks.X = bump(ks.X)
			k.Share = ks
		case bz03.KeyShare:
			ks.X = bump(ks.X)
			k.Share = ks
		case cks05.KeyShare:
			ks.X = bump(ks.X)
			k.Share = ks
		}
		_, err = New(rand.Reader, nodes[0], req)
		if !errors.Is(err, ErrKeyShareMismatch) || errors.Is(err, ErrShareRejected) {
			t.Fatalf("%s with a corrupted key share: %v, want a local key-share error", req.Scheme, err)
		}
	}
}

// rejectingProto finalizes with a fixed rejection of committee shares.
type rejectingProto struct{ Protocol }

func (rejectingProto) Finalize() ([]byte, error) {
	return nil, &RejectedError{Senders: []int{1, 2}, Cause: bls04.ErrInvalidSignature}
}

// TestSenderMappedRejectionNamesNodes: after a membership change, a
// rejection names mesh nodes, not committee share indices.
func TestSenderMappedRejectionNamesNodes(t *testing.T) {
	p := &senderMapped{Protocol: rejectingProto{}, members: []int{7, 3}}
	_, err := p.Finalize()
	var rej *RejectedError
	if !errors.As(err, &rej) || len(rej.Senders) != 2 || rej.Senders[0] != 3 || rej.Senders[1] != 7 {
		t.Fatalf("mapped rejection %v, want senders [3 7]", err)
	}
	if !errors.Is(err, bls04.ErrInvalidSignature) {
		t.Fatalf("mapped rejection lost its cause: %v", err)
	}
}

// TestKeygenProtocolInstallsAgreedKey drives the OpKeyGen TRI protocol
// across four keystores and checks the DKG contract: every node
// installs the key under the requested ID, all public keys agree, and
// the new key immediately signs/decrypts through the ordinary request
// path.
func TestKeygenProtocolInstallsAgreedKey(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.CKS05) // keygen needs only thresholds, but deal CKS05 for contrast
	gen := Request{Scheme: schemes.KG20, KeyID: "runtime-1", Op: OpKeyGen}
	protos := make([]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, gen)
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = p
	}
	results := drive(t, protos)
	for i, v := range results {
		if string(v) != "runtime-1" {
			t.Fatalf("node %d keygen result %q", i+1, v)
		}
	}
	ref, err := keys.Public[*frost.PublicKey](nodes[0], schemes.KG20, "runtime-1")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("agreement", func(t *testing.T) {
		for i, nk := range nodes {
			pk, err := keys.Public[*frost.PublicKey](nk, schemes.KG20, "runtime-1")
			if err != nil {
				t.Fatalf("node %d: %v", i+1, err)
			}
			if !pk.Y.Equal(ref.Y) {
				t.Fatalf("node %d public key differs", i+1)
			}
			for j := range pk.VK {
				if !pk.VK[j].Equal(ref.VK[j]) {
					t.Fatalf("node %d VK[%d] differs", i+1, j)
				}
			}
		}
	})
	t.Run("usable-for-signing", func(t *testing.T) {
		sign := Request{Scheme: schemes.KG20, KeyID: "runtime-1", Op: OpSign, Payload: []byte("signed under DKG key")}
		sp := make([]Protocol, len(nodes))
		for i, nk := range nodes {
			p, err := New(rand.Reader, nk, sign)
			if err != nil {
				t.Fatal(err)
			}
			sp[i] = p
		}
		out := drive(t, sp)
		sig, err := frost.UnmarshalSignature(ref.Group, out[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := frost.Verify(ref, sign.Payload, sig); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("conflict", func(t *testing.T) {
		if _, err := New(rand.Reader, nodes[0], gen); !errors.Is(err, keys.ErrKeyExists) {
			t.Fatalf("re-running keygen for an installed key: %v", err)
		}
	})
	t.Run("unknown-key-lookup", func(t *testing.T) {
		req := Request{Scheme: schemes.KG20, KeyID: "never-made", Op: OpSign, Payload: []byte("x")}
		if _, err := New(rand.Reader, nodes[0], req); !errors.Is(err, keys.ErrKeyUnknown) {
			t.Fatalf("unknown key: %v", err)
		}
	})
}

// TestKeygenValidation pins the Validate contract for OpKeyGen and
// key-ID syntax.
func TestKeygenValidation(t *testing.T) {
	if err := (Request{Scheme: schemes.KG20, KeyID: "ok-1", Op: OpKeyGen}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Request{Scheme: schemes.KG20, Op: OpKeyGen}).Validate(); !errors.Is(err, ErrBadKeyID) {
		t.Fatalf("keygen without id: %v", err)
	}
	if err := (Request{Scheme: schemes.SH00, KeyID: "k", Op: OpKeyGen}).Validate(); !errors.Is(err, ErrKeygenUnsupported) {
		t.Fatalf("deal-only keygen: %v", err)
	}
	if err := (Request{Scheme: schemes.KG20, KeyID: "k", Op: OpKeyGen, Payload: []byte("no-such-group")}).Validate(); !errors.Is(err, ErrKeygenUnsupported) {
		t.Fatalf("unknown group: %v", err)
	}
	if err := (Request{Scheme: schemes.CKS05, KeyID: "bad id", Op: OpCoin}).Validate(); !errors.Is(err, ErrBadKeyID) {
		t.Fatalf("bad key id: %v", err)
	}
}

// TestKeyIDThreadsThroughIdentity pins that the key ID participates in
// the instance identity and the wire form, with "" and "default"
// naming the same instance.
func TestKeyIDThreadsThroughIdentity(t *testing.T) {
	base := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("c")}
	dflt := base
	dflt.KeyID = keys.DefaultKeyID
	if base.InstanceID() != dflt.InstanceID() {
		t.Fatal("empty and explicit default key IDs diverged")
	}
	other := base
	other.KeyID = "other"
	if base.InstanceID() == other.InstanceID() {
		t.Fatal("distinct keys share an instance")
	}
	got, err := UnmarshalRequest(other.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyID != "other" || got.InstanceID() != other.InstanceID() {
		t.Fatalf("wire round trip lost the key id: %+v", got)
	}
}

// TestKeygenRejectsDealingWithAnyBadSubShare pins the deterministic
// exclusion rule: all n sub-shares travel in the broadcast dealing, so
// a node rejects a dealing whose sub-share for ANY party fails
// verification — not only its own — and every honest node excludes
// the dealer identically.
func TestKeygenRejectsDealingWithAnyBadSubShare(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.CKS05)
	gen := Request{Scheme: schemes.CKS05, KeyID: "tamper", Op: OpKeyGen}
	p1, err := New(rand.Reader, nodes[0], gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.DoRound(); err != nil {
		t.Fatal(err)
	}
	// Build dealer 2's dealing honestly, then corrupt the sub-share
	// addressed to party 3 (NOT the receiving party 1).
	dealer, err := dkg.NewParticipant(group.Edwards25519(), 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	dealing, err := dealer.Deal(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	dealing.SubShares[2].Value = new(big.Int).Add(dealing.SubShares[2].Value, big.NewInt(1))
	kg := p1.(*keygenProtocol)
	err = p1.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: marshalDealing(dealing)})
	if !errors.Is(err, ErrShareRejected) {
		t.Fatalf("tampered dealing accepted: %v", err)
	}
	if qual := kg.part.Qualified(); len(qual) != 1 || qual[0] != 1 {
		t.Fatalf("dealer 2 not excluded: qualified=%v", qual)
	}
}
