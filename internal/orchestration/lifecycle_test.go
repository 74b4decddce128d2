package orchestration

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"
	"time"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", msg)
}

func coinReq(session string) protocols.Request {
	return protocols.Request{
		Scheme: schemes.CKS05, Op: protocols.OpCoin,
		Payload: []byte("lifecycle"), Session: session,
	}
}

// TestRetentionCapBoundsMemory is the sustained-load acceptance test:
// far more requests than the retention cap are submitted and consumed,
// and every engine's instance count settles at the cap instead of
// growing without bound.
func TestRetentionCapBoundsMemory(t *testing.T) {
	const cap = 16
	const total = 96
	const wave = 16
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = cap
		cfg.RetainTTL = time.Hour // only the cap evicts here
	})
	for start := 0; start < total; start += wave {
		reqs := make([]protocols.Request, wave)
		for i := range reqs {
			reqs[i] = coinReq(fmt.Sprintf("cap-%d", start+i))
		}
		subs, err := c.engines[0].SubmitBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			res, err := sub.Future.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("instance %s failed: %v", sub.InstanceID, res.Err)
			}
		}
	}
	for i, e := range c.engines {
		e := e
		waitUntil(t, 20*time.Second, func() bool { return e.InstanceCount() == cap },
			fmt.Sprintf("engine %d: instance count %d, want retention cap %d", i+1, e.InstanceCount(), cap))
		st := e.Stats()
		if st.Finished != cap || st.Live != 0 {
			t.Fatalf("engine %d stats: %+v, want finished=%d live=0", i+1, st, cap)
		}
		if st.Evicted < total-cap {
			t.Fatalf("engine %d evicted %d, want >= %d", i+1, st.Evicted, total-cap)
		}
	}
}

// TestStaleShareDoesNotResurrectEvictedInstance: a late share of an
// evicted run (its generation is the remembered one) is dropped instead
// of re-creating the id as a live placeholder, which would hold engine
// state until the placeholder TTL. A re-run of the id at the next
// generation still works.
func TestStaleShareDoesNotResurrectEvictedInstance(t *testing.T) {
	c := newCluster(t, 1, 3, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = time.Minute
		if cfg.Keys.Index == 1 {
			cfg.RetainMax = 1 // only node 1 cap-evicts
		}
	})
	e := c.engines[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	run := func(req protocols.Request) Result {
		t.Helper()
		f, err := e.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return waitAll(t, []*Future{f})[0]
	}
	reqA := coinReq("stale-A")
	first := run(reqA)
	run(coinReq("stale-B")) // pushes A out of node 1's size-1 window
	pollStats(t, e, 10*time.Second, func(st Stats) bool { return st.Evicted >= 1 && st.Live == 0 },
		"node 1 never cap-evicted the first run")
	before := e.InstanceCount()

	e.handleEnvelope(network.Envelope{
		From: 2, Instance: reqA.InstanceID(), Kind: network.KindProto, Round: 1, Gen: 1,
		Payload: []byte("late share of the evicted run"),
	}, 0)
	if st := e.Stats(); st.Live != 0 || e.InstanceCount() != before {
		t.Fatalf("stale share resurrected the evicted instance: %+v, count %d -> %d", st, before, e.InstanceCount())
	}

	// A re-submission runs as generation 2; the retaining peers join it.
	if again := run(reqA); string(again.Value) != string(first.Value) {
		t.Fatalf("re-run coin differs: %x vs %x", again.Value, first.Value)
	}
}

// TestRetainTTLEvictsAndAttachExpires: after the retention window, the
// result is gone and Attach reports a typed ErrExpired immediately
// instead of parking a watcher forever.
func TestRetainTTLEvictsAndAttachExpires(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = 80 * time.Millisecond
		cfg.SweepInterval = 10 * time.Millisecond
	})
	req := coinReq("ttl")
	waitAll(t, c.submitAll(t, req))
	id := req.InstanceID()

	e := c.engines[0]
	waitUntil(t, 10*time.Second, func() bool { return e.InstanceCount() == 0 },
		"finished instance never evicted by TTL sweep")
	if st := e.Stats(); st.Evicted == 0 || st.Finished != 0 {
		t.Fatalf("stats after TTL eviction: %+v", st)
	}

	select {
	case res := <-e.Attach(id).Done():
		if !errors.Is(res.Err, ErrExpired) {
			t.Fatalf("attach after expiry: got %v, want ErrExpired", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("attach on evicted instance did not resolve immediately")
	}
}

// TestResubmitAfterEvictionStartsFresh: an evicted instance does not
// count as a duplicate — re-submitting the request clears the tombstone
// and runs a fresh instance to completion on every node.
func TestResubmitAfterEvictionStartsFresh(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = 80 * time.Millisecond
		cfg.SweepInterval = 10 * time.Millisecond
	})
	req := coinReq("fresh")
	first := waitAll(t, c.submitAll(t, req))

	for i, e := range c.engines {
		e := e
		waitUntil(t, 10*time.Second, func() bool { return e.InstanceCount() == 0 },
			fmt.Sprintf("engine %d never evicted the finished instance", i+1))
	}

	subs, err := c.engines[0].SubmitBatch(context.Background(), []protocols.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if subs[0].Duplicate {
		t.Fatal("re-submission after eviction flagged duplicate")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := subs[0].Future.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("fresh run failed: %v", res.Err)
	}
	// CKS05 is deterministic in the coin name: the fresh run reproduces
	// the evicted value.
	if string(res.Value) != string(first[0].Value) {
		t.Fatal("fresh run disagrees with the evicted result")
	}
	// The tombstone is gone: Attach serves the retained fresh result.
	select {
	case res := <-c.engines[0].Attach(req.InstanceID()).Done():
		if res.Err != nil {
			t.Fatalf("attach after fresh run: %v", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("attach after fresh run did not resolve")
	}
}

// TestPlaceholderWatchersExpire: a watcher attached to an id that never
// materializes is failed with ErrExpired by the sweeper, and the
// placeholder does not leak.
func TestPlaceholderWatchersExpire(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = 80 * time.Millisecond
		cfg.SweepInterval = 10 * time.Millisecond
	})
	e := c.engines[0]
	f := e.Attach("never-started-instance")
	select {
	case res := <-f.Done():
		if !errors.Is(res.Err, ErrExpired) {
			t.Fatalf("placeholder watcher got %v, want ErrExpired", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("placeholder watcher never expired")
	}
	waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 0 },
		"expired placeholder still tracked")
}

// TestPlaceholderCapBoundsWatchers: attaching watchers for arbitrary
// unknown ids (the shape of an unauthenticated result-query flood)
// cannot grow engine state past the placeholder cap — the oldest
// placeholders are evicted with ErrExpired instead.
func TestPlaceholderCapBoundsWatchers(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = 2 // placeholder cap = 4 * RetainMax = 8
		cfg.RetainTTL = time.Hour
	})
	e := c.engines[0]
	const flood = 40
	futures := make([]*Future, flood)
	for i := range futures {
		futures[i] = e.Attach(fmt.Sprintf("bogus-id-%04d", i))
	}
	if got := e.InstanceCount(); got > 8 {
		t.Fatalf("watcher flood grew engine to %d instances, cap is 8", got)
	}
	// The overflowed watchers were expired, not silently dropped.
	for i := 0; i < flood-8; i++ {
		select {
		case res := <-futures[i].Done():
			if !errors.Is(res.Err, ErrExpired) {
				t.Fatalf("evicted watcher %d got %v, want ErrExpired", i, res.Err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("evicted watcher %d never resolved", i)
		}
	}
	if st := e.Stats(); st.Evicted < flood-8 {
		t.Fatalf("stats after flood: %+v", st)
	}
}

// TestDuplicateSubmitWithWorkers smoke-tests duplicate submissions
// racing adoption when several workers share the event queue (the
// backlog must survive until the adopter publishes the protocol).
func TestDuplicateSubmitWithWorkers(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.Workers = 4
	})
	for round := 0; round < 5; round++ {
		req := coinReq(fmt.Sprintf("workers-%d", round))
		var futures []*Future
		for _, e := range c.engines {
			for dup := 0; dup < 3; dup++ {
				f, err := e.Submit(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				futures = append(futures, f)
			}
		}
		// The first future per engine is enough: duplicates may share.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := futures[0].Wait(ctx)
		cancel()
		if err != nil || res.Err != nil {
			t.Fatalf("round %d: %v / %v", round, err, res.Err)
		}
	}
}

// TestStalledRunExpires: a started instance whose quorum never forms
// (here: one live node of four) is expired by the sweeper after the
// live-run window — watchers get ErrExpired and the engine returns to
// zero tracked instances instead of leaking the stalled run.
func TestStalledRunExpires(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(4, memnet.Options{})
	t.Cleanup(hub.Close)
	e := New(Config{
		Keys:          nodes[0],
		Net:           hub.Endpoint(1),
		RetainTTL:     80 * time.Millisecond, // liveTTL floors at 2s
		SweepInterval: 20 * time.Millisecond,
	})
	t.Cleanup(e.Stop)

	f, err := e.Submit(context.Background(), coinReq("stalled"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-f.Done():
		if !errors.Is(res.Err, ErrExpired) {
			t.Fatalf("stalled run resolved with %v, want ErrExpired", res.Err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stalled run never expired")
	}
	waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 0 },
		"stalled instance still tracked after expiry")
	if st := e.Stats(); st.Evicted == 0 {
		t.Fatalf("stats after stalled-run expiry: %+v", st)
	}
}

// blockingNet wedges every Broadcast until released, pinning the worker
// so the event queue can be saturated deterministically.
type blockingNet struct {
	release chan struct{}
	in      chan network.Envelope
}

func (b *blockingNet) Send(context.Context, int, network.Envelope) error { return nil }
func (b *blockingNet) Broadcast(context.Context, network.Envelope) error {
	<-b.release
	return nil
}
func (b *blockingNet) Receive() <-chan network.Envelope       { return b.in }
func (b *blockingNet) TransportStats() network.TransportStats { return network.TransportStats{} }
func (b *blockingNet) Close() error                           { return nil }

// TestSubmitOverloadedFailsFast: a saturated event queue rejects both
// Submit and SubmitBatch with the typed ErrOverloaded instead of
// blocking the submitter, and the rejections are counted.
func TestSubmitOverloadedFailsFast(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	bn := &blockingNet{release: make(chan struct{}), in: make(chan network.Envelope)}
	e := New(Config{
		Keys:     nodes[0],
		Net:      bn,
		QueueLen: 1,
	})
	t.Cleanup(e.Stop)
	t.Cleanup(func() { close(bn.release) }) // unwedge the worker before Stop

	ctx := context.Background()
	if _, err := e.Submit(ctx, coinReq("a")); err != nil {
		t.Fatal(err)
	}
	// The worker dequeues "a" and wedges in the start announcement.
	waitUntil(t, 5*time.Second, func() bool { return e.Stats().QueueDepth == 0 },
		"worker never picked up the first submission")
	if _, err := e.Submit(ctx, coinReq("b")); err != nil { // fills the queue
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := e.Submit(ctx, coinReq("c")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit on full queue: got %v, want ErrOverloaded", err)
	}
	if _, err := e.SubmitBatch(ctx, []protocols.Request{coinReq("d")}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch on full queue: got %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("overload rejection took %v, want fail-fast", elapsed)
	}
	st := e.Stats()
	if st.Overloaded != 2 || st.QueueDepth != 1 || st.QueueCap != 1 {
		t.Fatalf("stats after overload: %+v", st)
	}
}

// TestRejectedSharesCounted: the stats snapshot counts invalid shares
// alongside the existing observer hook.
func TestRejectedSharesCounted(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{})
	req := coinReq("rejected")
	garbage := network.Envelope{
		Instance: req.InstanceID(),
		Kind:     network.KindProto,
		Round:    1,
		Payload:  []byte("not a share"),
	}
	if err := c.hub.Endpoint(4).Broadcast(context.Background(), garbage); err != nil {
		t.Fatal(err)
	}
	futures := make([]*Future, 0, 3)
	for _, e := range c.engines[:3] {
		f, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	waitAll(t, futures)
	waitUntil(t, 5*time.Second, func() bool {
		var total uint64
		for _, e := range c.engines[:3] {
			total += e.Stats().RejectedShares
		}
		return total > 0
	}, "garbage shares not counted in stats")
}

// BenchmarkSustainedLoad drives waves of coin instances through a
// 4-node cluster with a small retention cap and reports the retained
// instance count, demonstrating bounded per-node state under sustained
// traffic.
func BenchmarkSustainedLoad(b *testing.B) {
	const cap = 32
	const wave = 8
	c := newCluster(b, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = cap
		cfg.RetainTTL = time.Hour
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := make([]protocols.Request, wave)
		for j := range reqs {
			reqs[j] = coinReq(fmt.Sprintf("bench-%d-%d", i, j))
		}
		subs, err := c.engines[0].SubmitBatch(context.Background(), reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range subs {
			res, err := sub.Future.Wait(context.Background())
			if err != nil || res.Err != nil {
				b.Fatalf("wait: %v / %v", err, res.Err)
			}
		}
	}
	b.StopTimer()
	waitUntil(b, 20*time.Second, func() bool { return c.engines[0].InstanceCount() <= cap },
		"instance count above retention cap after load")
	b.ReportMetric(float64(c.engines[0].InstanceCount()), "retained-instances")
	b.ReportMetric(float64(c.engines[0].Stats().Evicted), "evicted")
}
