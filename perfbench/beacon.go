package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"sync/atomic"
	"time"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes/cks05"
)

// beacon: the randomness beacon. Rounds are produced one at a time,
// each an independent CKS05 coin named round-<r>|<seed>, on a memnet
// committee with a 5 ms one-way delay. With a single coin in flight the
// latency is one instance's crypto plus its message rounds, with
// verification batches of about one and short queues. One coin at a
// time rather than a fixed-rate open loop: on a shared host an open
// loop turns swings in CPU speed into queueing, and its p95 varied more
// across identical runs than any bound a regression check could use.

const (
	beaconLatency = 5 * time.Millisecond
	warmCoins     = 3
)

type beacon struct {
	seed  int64
	mc    *memCluster
	round int
	coins map[string][]byte // round name -> coin value, for the check
}

func setupBeacon(ctx context.Context, seed int64, tr *tracer) (deployment, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	mc, err := newMemCluster(thetacrypt.CKS05, beaconLatency, tr)
	if err != nil {
		return nil, st, err
	}
	st.deal = time.Since(start)
	st.total = st.deal
	return &beacon{seed: seed, mc: mc, coins: map[string][]byte{}}, st, nil
}

func (b *beacon) close() {
	if b.mc != nil {
		b.mc.closeFn()
		b.mc = nil
	}
}

func (b *beacon) nodeStats() []api.EngineStats { return b.mc.nodeStats() }
func (b *beacon) probes() *probes              { return b.mc.pr }

func (b *beacon) coin(ctx context.Context, name string) (api.Result, error) {
	h, err := b.mc.svc.Submit(ctx, thetacrypt.Request{Scheme: thetacrypt.CKS05, Op: thetacrypt.OpCoin, Payload: []byte(name)})
	if err != nil {
		return api.Result{}, err
	}
	return b.mc.svc.Wait(ctx, h)
}

func (b *beacon) warm(ctx context.Context, _ time.Duration) error {
	for i := 0; i < warmCoins; i++ {
		res, err := b.coin(ctx, fmt.Sprintf("warm-%d|%d", i, b.seed))
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// drive requests one coin after another until the window ends.
func (b *beacon) drive(ctx context.Context, window time.Duration, tr *tracer) (windowResult, error) {
	var res windowResult
	start := time.Now()
	var last time.Time
	for time.Since(start) < window {
		name := roundName(b.seed, b.round)
		b.round++
		id := tr.newID()
		t0 := time.Now()
		r, err := b.coin(ctx, name)
		last = time.Now()
		if err == nil {
			err = r.Err
		}
		if err == nil {
			b.coins[name] = r.Value
		}
		tr.record(id, 0, id, "op", "", t0, last)
		tr.record(0, id, id, "engine.server", "", last.Add(-r.ServerLatency), last)
		res.ops = append(res.ops, opResult{Latency: last.Sub(t0), Server: r.ServerLatency, Err: err})
	}
	res.elapsed = last.Sub(start)
	return res, nil
}

// check recomputes every coin locally from t+1 dealt shares.
func (b *beacon) check(context.Context) (int, error) {
	pk, err := keys.Public[*cks05.PublicKey](b.mc.store(1), thetacrypt.CKS05, "")
	if err != nil {
		return 0, err
	}
	kss := make([]cks05.KeyShare, committeeT+1)
	for i := range kss {
		if kss[i], err = keys.ShareOf[cks05.KeyShare](b.mc.store(i+1), thetacrypt.CKS05, ""); err != nil {
			return 0, err
		}
	}
	names := make([]string, 0, len(b.coins))
	for name := range b.coins {
		names = append(names, name)
	}
	var wrong atomic.Int64
	err = parallel(len(names), func(i int) error {
		name := []byte(names[i])
		css := make([]*cks05.CoinShare, len(kss))
		for j, ks := range kss {
			var err error
			if css[j], err = cks05.Share(rand.Reader, pk, ks, name); err != nil {
				return err
			}
		}
		want, err := cks05.Combine(pk, name, css)
		if err != nil {
			return err
		}
		if !bytes.Equal(b.coins[names[i]], want) {
			wrong.Add(1)
		}
		return nil
	})
	return int(wrong.Load()), err
}
