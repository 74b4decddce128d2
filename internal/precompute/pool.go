package precompute

import (
	"crypto/rand"
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/internal/schemes/frost"
)

// NoncePool banks FROST preprocessed nonces per (scheme, key, epoch).
// Each bank assigns monotonically increasing sequence numbers to slots;
// a slot holds this node's secret nonce and the commitments observed
// from every member. A slot is consumable once the commitments of a
// full signer set have arrived. Consumption deletes the secret nonce
// BEFORE any signature share is computed (consume-then-sign), so a
// nonce is never used twice even if the signing attempt is retried or
// crashes mid-way — reuse would leak the key share. Banks are keyed by
// epoch: after a reshare the old bank is unreachable and the pool warms
// up fresh under the new epoch.
//
// Sequence numbers are meaningful only within one *run* — the random id
// the refill initiator draws at boot and carries in every refill. The
// sequence high-water mark is volatile, so after a restart the
// initiator would propose already-used bases again; under the old run
// those seqs are burned on the followers (re-banking them would let the
// banked secrets diverge from the broadcast commitments), but a fresh
// run id opens a fresh namespace: followers reset the key's bank on the
// first refill of a new run and bank from base zero again. The old
// run's surviving slots are dropped with the reset — the restarted
// initiator lost its secrets for them, so they could never complete a
// signing round anyway.
type NoncePool struct {
	depth  int
	refill int
	// run is this node's refill namespace id, drawn fresh each boot. It
	// only reaches the wire when this node is a key's designated refill
	// initiator; everyone else banks under the run id of the refills it
	// observes.
	run uint64

	mu    sync.Mutex
	banks map[keyEpoch]*nonceBank

	refills     atomic.Int64
	exhaustions atomic.Int64
}

func newNoncePool(rnd io.Reader, depth, refill int) *NoncePool {
	if rnd == nil {
		rnd = rand.Reader
	}
	var buf [8]byte
	run := uint64(time.Now().UnixNano()) // fallback if rnd fails
	if _, err := io.ReadFull(rnd, buf[:]); err == nil {
		run = binary.BigEndian.Uint64(buf[:])
	}
	return &NoncePool{depth: depth, refill: refill, run: run, banks: make(map[keyEpoch]*nonceBank)}
}

// Depth returns the configured target bank depth.
func (p *NoncePool) Depth() int {
	if p == nil {
		return 0
	}
	return p.depth
}

// Enabled reports whether pooling is on.
func (p *NoncePool) Enabled() bool { return p != nil && p.depth > 0 }

// bankFor returns the bank for (scheme, key, epoch) under the given
// run id, creating it when absent. An existing bank under a DIFFERENT
// run is reset: a new run means the refill initiator restarted and lost
// every secret it banked under the old one, so the old slots can never
// complete a signing round — keeping them would only hard-fail requests
// and (worse) let re-banked sequence numbers diverge from previously
// broadcast commitments. p.mu is held.
func (p *NoncePool) bankFor(scheme, keyID string, epoch int, run uint64) *nonceBank {
	k := keyEpoch{scheme: scheme, keyID: keyID, epoch: epoch}
	b := p.banks[k]
	if b != nil && b.run != run {
		b = nil
	}
	if b == nil {
		b = &nonceBank{
			run:   run,
			own:   make(map[uint64]*frost.Nonce),
			comms: make(map[uint64]map[int]*frost.NonceCommitment),
		}
		p.banks[k] = b
	}
	return b
}

// NeedRefill reports whether the bank for (scheme, key, epoch) has
// dropped below the refill watermark, and if so the run id, base
// sequence number, and count a refill round should cover. Only the
// designated refill initiator should act on it, so concurrent refills
// never race on sequence assignment; run is this node's per-boot
// namespace id, so a restarted initiator never reuses the sequence
// ranges of its previous life.
func (p *NoncePool) NeedRefill(scheme, keyID string, epoch int) (run, base uint64, count int, need bool) {
	if !p.Enabled() {
		return 0, 0, 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.bankFor(scheme, keyID, epoch, p.run)
	if len(b.own) >= p.refill {
		return 0, 0, 0, false
	}
	return p.run, b.nextSeq, p.depth - len(b.own), true
}

// BankOwn stores this node's freshly generated nonces for sequence
// numbers base..base+len(nonces)-1 of the given refill run and their
// commitments. Within a run, sequence numbers already assigned locally
// are skipped — a replayed or overlapping refill can never resurrect a
// consumed nonce. A new run resets the bank (see bankFor).
func (p *NoncePool) BankOwn(scheme, keyID string, epoch int, run, base uint64, nonces []*frost.Nonce, comms []*frost.NonceCommitment) {
	if !p.Enabled() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.bankFor(scheme, keyID, epoch, run)
	for i, n := range nonces {
		seq := base + uint64(i)
		if seq < b.nextSeq {
			continue
		}
		b.own[seq] = n
		p.observeLocked(b, seq, comms[i])
	}
	if end := base + uint64(len(nonces)); end > b.nextSeq {
		b.nextSeq = end
	}
	p.refills.Add(1)
}

// Observe records another member's commitments for sequence numbers
// base..base+len(comms)-1 of the given refill run.
func (p *NoncePool) Observe(scheme, keyID string, epoch int, run, base uint64, comms []*frost.NonceCommitment) {
	if !p.Enabled() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.bankFor(scheme, keyID, epoch, run)
	for i, c := range comms {
		p.observeLocked(b, base+uint64(i), c)
	}
}

func (p *NoncePool) observeLocked(b *nonceBank, seq uint64, c *frost.NonceCommitment) {
	if c == nil {
		return
	}
	m := b.comms[seq]
	if m == nil {
		m = make(map[int]*frost.NonceCommitment)
		b.comms[seq] = m
	}
	m[c.Index] = c
}

// Acquire consumes, for the initiator, the lowest banked slot whose
// commitments cover every signer in the subset. The secret nonce is
// removed from the bank before it is returned (consume-then-sign). The
// returned commitments are the signer set's, in frost's sorted order.
// ok is false — and the exhaustion counter bumps — when no complete
// slot exists; the caller then degrades to the two-round path.
func (p *NoncePool) Acquire(scheme, keyID string, epoch int, signers []int) (seq uint64, nonce *frost.Nonce, comms []*frost.NonceCommitment, ok bool) {
	if !p.Enabled() {
		return 0, nil, nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.banks[keyEpoch{scheme: scheme, keyID: keyID, epoch: epoch}]
	if b == nil {
		p.exhaustions.Add(1)
		return 0, nil, nil, false
	}
	best := uint64(0)
	found := false
	for s := range b.own {
		if !slotComplete(b.comms[s], signers) {
			continue
		}
		if !found || s < best {
			best, found = s, true
		}
	}
	if !found {
		p.exhaustions.Add(1)
		return 0, nil, nil, false
	}
	nonce = b.own[best]
	delete(b.own, best)
	slot := b.comms[best]
	delete(b.comms, best)
	comms = make([]*frost.NonceCommitment, 0, len(signers))
	for _, idx := range signers {
		comms = append(comms, slot[idx])
	}
	return best, nonce, comms, true
}

// Claim consumes a specific slot for a follower joining a pooled round
// the initiator selected. It returns the node's secret nonce and its
// own banked commitment (for cross-checking the initiator's set); the
// nonce is removed before return. ok is false when the slot was never
// banked or already consumed.
func (p *NoncePool) Claim(scheme, keyID string, epoch int, seq uint64, self int) (nonce *frost.Nonce, own *frost.NonceCommitment, ok bool) {
	if !p.Enabled() {
		return nil, nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.banks[keyEpoch{scheme: scheme, keyID: keyID, epoch: epoch}]
	if b == nil {
		return nil, nil, false
	}
	nonce = b.own[seq]
	if nonce == nil {
		return nil, nil, false
	}
	delete(b.own, seq)
	own = b.comms[seq][self]
	delete(b.comms, seq)
	return nonce, own, true
}

func slotComplete(slot map[int]*frost.NonceCommitment, signers []int) bool {
	if slot == nil {
		return false
	}
	for _, idx := range signers {
		if slot[idx] == nil {
			return false
		}
	}
	return true
}

// DepthOf returns the number of unconsumed own nonces banked for one
// (scheme, key, epoch).
func (p *NoncePool) DepthOf(scheme, keyID string, epoch int) int {
	if !p.Enabled() {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.banks[keyEpoch{scheme: scheme, keyID: keyID, epoch: epoch}]
	if b == nil {
		return 0
	}
	return len(b.own)
}

// TotalDepth sums unconsumed own nonces across all banks.
func (p *NoncePool) TotalDepth() int {
	if !p.Enabled() {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, b := range p.banks {
		total += len(b.own)
	}
	return total
}

// invalidate drops the named key's banks below keepEpoch.
func (p *NoncePool) invalidate(scheme, keyID string, keepEpoch int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.banks {
		if k.scheme == scheme && k.keyID == keyID && k.epoch < keepEpoch {
			delete(p.banks, k)
		}
	}
}
