package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/tob"
)

// block-decrypt: front-running prevention. Each block of encrypted
// transactions is ordered through a sequencer TOB on its own memnet hub
// (transaction i enters via validator i mod 4), then decrypted in
// committed order with one SubmitBatch and WaitEach. Closed loop, one
// block in flight; each transaction is one operation, timed from its
// block's submission to its plaintext.

const warmBlocks = 1

type blockDecrypt struct {
	seed int64
	mc   *memCluster
	hub  *memnet.Hub
	seqs []*tob.Sequencer

	blockTime time.Duration  // the last warm-up block's wall time
	next      int            // index of the next block to generate
	ready     []sealedBlock  // encrypted blocks not yet sent
	done      []decryptBlock // sent blocks, for the output check
}

// sealedBlock is a generated block with its ciphertexts.
type sealedBlock struct {
	txs []tx
	cts [][]byte
}

// decryptBlock is a sent block's outputs: each endpoint's delivery
// order and the plaintext per label.
type decryptBlock struct {
	txs    []tx
	orders [][]string
	plain  map[string][]byte
}

func setupBlockDecrypt(ctx context.Context, seed int64, tr *tracer) (deployment, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	mc, err := newMemCluster(thetacrypt.SG02, 0, tr)
	if err != nil {
		return nil, st, err
	}
	st.deal = time.Since(start)
	linkStart := time.Now()
	b := &blockDecrypt{seed: seed, mc: mc, hub: memnet.NewHub(committeeN, memnet.Options{})}
	for i := 1; i <= committeeN; i++ {
		s, err := tob.New(b.hub.Endpoint(i), i, 1)
		if err != nil {
			b.close()
			return nil, st, err
		}
		b.seqs = append(b.seqs, s)
	}
	st.links = time.Since(linkStart)
	st.total = time.Since(start)
	return b, st, nil
}

func (b *blockDecrypt) close() {
	for _, s := range b.seqs {
		_ = s.Close() // shutting down; the hub below is closed regardless
	}
	b.seqs = nil
	if b.hub != nil {
		b.hub.Close()
		b.hub = nil
	}
	if b.mc != nil {
		b.mc.closeFn()
		b.mc = nil
	}
}

func (b *blockDecrypt) nodeStats() []api.EngineStats { return b.mc.nodeStats() }
func (b *blockDecrypt) probes() *probes              { return b.mc.pr }

// seal generates and encrypts the next block of the seed's stream.
func (b *blockDecrypt) seal(ctx context.Context) (sealedBlock, error) {
	txs := genBlock(b.seed, b.next)
	b.next++
	sb := sealedBlock{txs: txs, cts: make([][]byte, len(txs))}
	err := parallel(len(txs), func(i int) error {
		ct, err := b.mc.svc.Encrypt(ctx, thetacrypt.SG02, "", txs[i].Data, []byte(txs[i].Label))
		if err != nil {
			return fmt.Errorf("encrypt %s: %w", txs[i].Label, err)
		}
		sb.cts[i] = ct
		return nil
	})
	return sb, err
}

// warm decrypts warmBlocks blocks, then encrypts, before any timing,
// a quarter more blocks than the warm-up pace fills into the total
// measured time; a window that runs out seals further blocks inline.
func (b *blockDecrypt) warm(ctx context.Context, total time.Duration) error {
	for i := 0; i < warmBlocks; i++ {
		sb, err := b.seal(ctx)
		if err != nil {
			return err
		}
		start := time.Now()
		ops, _, err := b.runBlock(ctx, sb, nil)
		if err != nil {
			return err
		}
		for _, op := range ops {
			if op.Err != nil {
				return op.Err
			}
		}
		b.blockTime = time.Since(start)
	}
	b.done = nil // warm-up outputs are not part of any window
	need := int(math.Ceil(1.25*float64(total)/float64(b.blockTime))) + 1
	for len(b.ready) < need {
		sb, err := b.seal(ctx)
		if err != nil {
			return err
		}
		b.ready = append(b.ready, sb)
	}
	return nil
}

func (b *blockDecrypt) drive(ctx context.Context, window time.Duration, tr *tracer) (windowResult, error) {
	var res windowResult
	start := time.Now()
	var last time.Time
	for time.Since(start) < window {
		var sb sealedBlock
		if len(b.ready) > 0 {
			sb, b.ready = b.ready[0], b.ready[1:]
		} else {
			var err error
			if sb, err = b.seal(ctx); err != nil {
				return res, err
			}
		}
		ops, end, err := b.runBlock(ctx, sb, tr)
		if err != nil {
			return res, err
		}
		res.ops = append(res.ops, ops...)
		last = end
	}
	res.elapsed = last.Sub(start)
	return res, nil
}

// runBlock orders one block through the TOB, decrypts it in committed
// order, and drains the other validators' deliveries for the order
// check. It returns one result per transaction and the time the last
// plaintext arrived. A decryption failure is an operation's error; an
// error return means the harness itself could not proceed.
func (b *blockDecrypt) runBlock(ctx context.Context, sb sealedBlock, tr *tracer) ([]opResult, time.Time, error) {
	ops := make([]opResult, len(sb.txs))
	opIDs := make([]int64, len(sb.txs))
	for i := range opIDs {
		opIDs[i] = tr.newID()
	}
	start := time.Now()
	for i, ct := range sb.cts {
		env := network.Envelope{Instance: sb.txs[i].Label, Payload: ct}
		if err := b.seqs[i%committeeN].Submit(ctx, env); err != nil {
			return nil, time.Time{}, fmt.Errorf("tob submit %s: %w", sb.txs[i].Label, err)
		}
	}
	out := decryptBlock{txs: sb.txs, orders: make([][]string, committeeN), plain: map[string][]byte{}}
	index := make(map[string]int, len(sb.txs))
	for i, t := range sb.txs {
		index[t.Label] = i
	}
	reqs := make([]thetacrypt.Request, 0, len(sb.txs))
	pos := make([]int, 0, len(sb.txs)) // request position -> tx index
	for len(reqs) < len(sb.txs) {
		env, err := deliver(ctx, b.seqs[0])
		if err != nil {
			return nil, time.Time{}, err
		}
		out.orders[0] = append(out.orders[0], env.Instance)
		i, ok := index[env.Instance]
		if !ok {
			return nil, time.Time{}, fmt.Errorf("tob delivered unknown transaction %q", env.Instance)
		}
		tr.record(0, opIDs[i], opIDs[i], "tob.order", "", start, time.Now())
		reqs = append(reqs, thetacrypt.Request{Scheme: thetacrypt.SG02, Op: thetacrypt.OpDecrypt,
			Payload: env.Payload, Session: env.Instance})
		pos = append(pos, i)
	}
	tr.record(0, 0, 0, "tob.block", "", start, time.Now())

	svc := b.mc.svc
	end := time.Now()
	hs, err := svc.SubmitBatch(ctx, reqs)
	if err != nil {
		for i := range ops {
			ops[i] = opResult{Latency: time.Since(start), Err: err}
		}
	} else {
		seen := make([]bool, len(ops))
		werr := api.WaitEach(ctx, svc, hs, func(k int, r api.Result) {
			now := time.Now()
			i := pos[k]
			seen[i] = true
			ops[i] = opResult{Latency: now.Sub(start), Server: r.ServerLatency, Err: r.Err}
			if r.Err == nil {
				out.plain[sb.txs[i].Label] = r.Value
			}
			tr.record(opIDs[i], 0, opIDs[i], "op", "", start, now)
			tr.record(0, opIDs[i], opIDs[i], "engine.server", "", now.Add(-r.ServerLatency), now)
			end = now
		})
		for i := range ops {
			if !seen[i] {
				ops[i] = opResult{Latency: time.Since(start), Err: fmt.Errorf("no result: %v", werr)}
			}
		}
	}
	for v := 1; v < committeeN; v++ {
		for len(out.orders[v]) < len(sb.txs) {
			env, err := deliver(ctx, b.seqs[v])
			if err != nil {
				return nil, time.Time{}, err
			}
			out.orders[v] = append(out.orders[v], env.Instance)
		}
	}
	b.done = append(b.done, out)
	return ops, end, nil
}

// deliver takes the next envelope of a validator's ordered stream.
func deliver(ctx context.Context, s *tob.Sequencer) (network.Envelope, error) {
	select {
	case env, ok := <-s.Delivered():
		if !ok {
			return env, fmt.Errorf("tob stream closed")
		}
		return env, nil
	case <-ctx.Done():
		return network.Envelope{}, fmt.Errorf("tob delivery: %w", ctx.Err())
	}
}

// check compares every plaintext with its transaction and every
// validator's delivery order with validator 1's.
func (b *blockDecrypt) check(context.Context) (int, error) {
	wrong := 0
	for _, blk := range b.done {
		for v := 1; v < committeeN; v++ {
			if !slices.Equal(blk.orders[v], blk.orders[0]) {
				fmt.Fprintf(os.Stderr, "perfbench: validator %d delivered %v, validator 1 %v\n", v+1, blk.orders[v], blk.orders[0])
				wrong++
			}
		}
		for _, t := range blk.txs {
			if p, ok := blk.plain[t.Label]; ok && !bytes.Equal(p, t.Data) {
				fmt.Fprintf(os.Stderr, "perfbench: %s decrypted to a different plaintext\n", t.Label)
				wrong++
			}
		}
	}
	return wrong, nil
}
