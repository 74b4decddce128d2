package tob

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
)

func newTOBClusterOn(t *testing.T, hub *memnet.Hub, n, leader int) []*Sequencer {
	t.Helper()
	seqs := make([]*Sequencer, n)
	for i := 1; i <= n; i++ {
		s, err := New(hub.Endpoint(i), i, leader)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i-1] = s
	}
	t.Cleanup(func() {
		for _, s := range seqs {
			_ = s.Close()
		}
	})
	return seqs
}

func newTOBCluster(t *testing.T, n, leader int) []*Sequencer {
	t.Helper()
	hub := memnet.NewHub(n, memnet.Options{Latency: memnet.Uniform(100 * time.Microsecond), JitterFrac: 0.5, Seed: 7})
	return newTOBClusterOn(t, hub, n, leader)
}

func collect(t *testing.T, s *Sequencer, count int) []string {
	t.Helper()
	out := make([]string, 0, count)
	timeout := time.After(10 * time.Second)
	for len(out) < count {
		select {
		case env := <-s.Delivered():
			out = append(out, string(env.Payload))
		case <-timeout:
			t.Fatalf("timed out after %d/%d deliveries", len(out), count)
		}
	}
	return out
}

func TestTotalOrder(t *testing.T) {
	const n, msgs = 4, 20
	seqs := newTOBCluster(t, n, 1)

	// Every node submits concurrently; all nodes must deliver the same
	// sequence.
	for i, s := range seqs {
		s := s
		i := i
		go func() {
			for m := 0; m < msgs; m++ {
				env := network.Envelope{
					Instance: "bcast",
					Payload:  []byte(fmt.Sprintf("n%d-m%d", i+1, m)),
				}
				if err := s.Submit(context.Background(), env); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	total := n * msgs
	sequences := make([][]string, n)
	for i, s := range seqs {
		sequences[i] = collect(t, s, total)
	}
	for i := 1; i < n; i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("node %d delivered %q at position %d, node 1 delivered %q",
					i+1, sequences[i][j], j, sequences[0][j])
			}
		}
	}
}

// TestLeaderDeliveryOrderUnderConcurrentSubmits races many leader-local
// submissions against forwarded ones. The leader must deliver its
// ordered stream in sequence order, exactly as the followers do, so
// every endpoint delivers the same sequence.
func TestLeaderDeliveryOrderUnderConcurrentSubmits(t *testing.T) {
	const n, submitters, msgs = 4, 8, 40
	hub := memnet.NewHub(n, memnet.Options{})
	seqs := newTOBClusterOn(t, hub, n, 1)
	total := n * submitters * msgs
	sequences := make([][]string, n)
	var collectors sync.WaitGroup
	for i, s := range seqs {
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			timeout := time.After(20 * time.Second)
			for len(sequences[i]) < total {
				select {
				case env := <-s.Delivered():
					sequences[i] = append(sequences[i], string(env.Payload))
				case <-timeout:
					return
				}
			}
		}()
	}
	var submits sync.WaitGroup
	for i, s := range seqs {
		for g := 0; g < submitters; g++ {
			submits.Add(1)
			go func() {
				defer submits.Done()
				for m := 0; m < msgs; m++ {
					env := network.Envelope{Payload: []byte(fmt.Sprintf("n%d-g%d-m%d", i+1, g, m))}
					if err := s.Submit(context.Background(), env); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}()
		}
	}
	submits.Wait()
	collectors.Wait()
	for i := range seqs {
		if len(sequences[i]) != total {
			t.Fatalf("node %d delivered %d/%d messages", i+1, len(sequences[i]), total)
		}
	}
	for i := 1; i < n; i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("node %d delivered %q at position %d, leader delivered %q",
					i+1, sequences[i][j], j, sequences[0][j])
			}
		}
	}
}

func TestLeaderSubmitsToo(t *testing.T) {
	seqs := newTOBCluster(t, 3, 2)
	if err := seqs[1].Submit(context.Background(), network.Envelope{Payload: []byte("from leader")}); err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		got := collect(t, s, 1)
		if got[0] != "from leader" {
			t.Fatalf("delivered %q", got[0])
		}
	}
}

func TestSenderOrderPreservedThroughSequencer(t *testing.T) {
	// A single submitter's messages must be delivered in submission
	// order (FIFO through the sequencer's per-link ordering).
	seqs := newTOBCluster(t, 3, 1)
	const msgs = 10
	for m := 0; m < msgs; m++ {
		if err := seqs[2].Submit(context.Background(), network.Envelope{
			Payload: []byte(fmt.Sprintf("m%02d", m)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, seqs[0], msgs)
	for m := 0; m < msgs; m++ {
		want := fmt.Sprintf("m%02d", m)
		if got[m] != want {
			t.Fatalf("position %d: got %q, want %q (FIFO violated)", m, got[m], want)
		}
	}
}

// TestCloseDuringLeaderSubmit races leader-side submissions against
// Close: no submission may panic with "send on closed channel" or
// report anything but ErrClosed, whichever side wins. The test drives
// that window repeatedly and must stay clean under -race.
func TestCloseDuringLeaderSubmit(t *testing.T) {
	const iterations = 150
	// Heavy oversubscription widens the racy window: a submitter must
	// be preempted between its closed-check and its channel send, and
	// stay descheduled until Close finishes.
	const submitters = 128
	for i := 0; i < iterations; i++ {
		hub := memnet.NewHub(1, memnet.Options{})
		s, err := New(hub.Endpoint(1), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		// A drainer keeps out unsaturated, so submitters are actively
		// sending — not parked — when Close lands.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range s.Delivered() {
			}
		}()
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := s.Submit(context.Background(), network.Envelope{Payload: []byte("race")})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("submit: %v", err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(i%5) * 200 * time.Microsecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := s.Submit(context.Background(), network.Envelope{Payload: []byte("late")}); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after close: got %v, want ErrClosed", err)
		}
		hub.Close()
	}
}

// lossyStats is a network.P2P stub whose TransportStats reports a lossy
// queue policy without the ack layer — the configuration tob.New must
// refuse.
type lossyStats struct {
	network.P2P
	policy network.QueuePolicy
}

func (l lossyStats) TransportStats() network.TransportStats {
	return network.TransportStats{Policy: l.policy, Reliable: false}
}

func TestNewRejectsLossyUnacknowledgedTransport(t *testing.T) {
	hub := memnet.NewHub(1, memnet.Options{})
	defer hub.Close()
	for _, policy := range []network.QueuePolicy{network.PolicyDropOldest, network.PolicyFailFast} {
		_, err := New(lossyStats{P2P: hub.Endpoint(1), policy: policy}, 1, 1)
		if !errors.Is(err, ErrLossyTransport) {
			t.Fatalf("policy %v accepted: %v", policy, err)
		}
	}
	// The block policy is lossless even without acks.
	s, err := New(lossyStats{P2P: hub.Endpoint(1), policy: network.PolicyBlock}, 1, 1)
	if err != nil {
		t.Fatalf("block policy rejected: %v", err)
	}
	_ = s.Close()
	// A reliable transport makes the lossy policies acceptable: the ack
	// layer resends what the queue drops.
	lossyHub := memnet.NewHub(1, memnet.Options{Policy: network.PolicyDropOldest})
	defer lossyHub.Close()
	s2, err := New(lossyHub.Endpoint(1), 1, 1)
	if err != nil {
		t.Fatalf("lossy policy on a reliable transport rejected: %v", err)
	}
	_ = s2.Close()
}

func TestSubmitFailsFastWhenLeaderDown(t *testing.T) {
	hub := memnet.NewHub(3, memnet.Options{})
	seqs := newTOBClusterOn(t, hub, 3, 1)
	defer hub.Close()

	// Healthy: a follower submission is delivered everywhere.
	if err := seqs[2].Submit(context.Background(), network.Envelope{Payload: []byte("pre")}); err != nil {
		t.Fatal(err)
	}
	collect(t, seqs[1], 1)

	hub.Crash(1)
	time.Sleep(3 * leaderProbeInterval) // let the cached health verdict expire
	err := seqs[2].Submit(context.Background(), network.Envelope{Payload: []byte("lost")})
	if !errors.Is(err, ErrLeaderDown) {
		t.Fatalf("submit with a dead leader returned %v, want ErrLeaderDown", err)
	}
	// The leader itself orders locally and is unaffected by its own
	// link state; followers recover once the leader is back.
	hub.Restart(1)
	time.Sleep(3 * leaderProbeInterval) // same: outlive the cached verdict
	if err := seqs[2].Submit(context.Background(), network.Envelope{Payload: []byte("post")}); err != nil {
		t.Fatalf("submit after leader restart: %v", err)
	}
	got := collect(t, seqs[1], 1)
	if got[0] != "post" {
		t.Fatalf("delivered %q after restart, want post", got[0])
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(1, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := Validate(0, 1, 4); err == nil {
		t.Fatal("self=0 accepted")
	}
	if err := Validate(1, 5, 4); err == nil {
		t.Fatal("leader out of range accepted")
	}
}
