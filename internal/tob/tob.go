// Package tob implements a sequencer-based total-order broadcast channel
// on top of the P2P layer. The paper treats TOB as a black box provided
// by the hosting platform (typically a blockchain); this implementation
// provides the same interface — every correct node delivers the same
// sequence of messages — with a designated sequencer assigning sequence
// numbers. Fault tolerance of the sequencer itself is out of scope, as
// it is for the paper's host-platform assumption.
package tob

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"thetacrypt/internal/network"
)

// ErrClosed is returned by Submit after the endpoint was closed.
var ErrClosed = errors.New("tob: sequencer closed")

// ErrLossyTransport is returned by New when the transport's queue
// policy can drop frames and the transport has no ack layer to resend
// them: the sequencer protocol has no retransmission of its own, so a
// single evicted ORDER frame would leave a permanent gap in the
// sequence and wedge every follower's delivery.
var ErrLossyTransport = errors.New("tob: transport queue policy is lossy and unacknowledged; the sequencer requires lossless delivery")

// ErrLeaderDown is returned by Submit when the transport reports the
// sequencer leader's link down: queueing into a dead link would only
// grow the backlog, so callers fail fast and decide themselves whether
// to retry, park, or escalate. The leader link's health is visible to
// operators in TransportStats (and through /v2/info on a service node).
var ErrLeaderDown = errors.New("tob: sequencer leader is down")

// Envelope kinds used on the underlying P2P channel. Values are disjoint
// from the orchestration kinds so a misrouted message is detectable.
const (
	kindSubmit network.Kind = 100 + iota
	kindOrder
)

// Sequencer is one node's endpoint of the TOB channel. It must run on a
// dedicated P2P transport (not shared with the orchestration traffic)
// that either uses the lossless network.PolicyBlock (the default) or
// runs the ack layer (TransportStats reports Reliable, as tcpnet and
// memnet do): the sequencer protocol has no retransmission of its own,
// so without one of the two, a lossy queue policy evicting one ORDER
// frame would leave a permanent gap in the sequence and wedge every
// follower's delivery. New enforces this with ErrLossyTransport. Note
// that even on a reliable transport, drop-oldest can definitively lose
// frames once the in-flight window itself overflows; size AckWindow
// for the expected outage, or keep the block policy.
type Sequencer struct {
	p2p    network.P2P
	self   int
	leader int

	// nextSeq, nextDel and pending are owned by the run goroutine, the
	// only one that orders and delivers: batches reach out in sequence
	// order, and Close may close out once run has exited.
	nextSeq int // leader: next sequence number to assign
	nextDel int // next sequence number to deliver
	pending map[int]network.Envelope
	// local hands a leader's own submissions to the run goroutine.
	local chan network.Envelope

	// mu guards closed and the leader-health cache below.
	mu     sync.Mutex
	closed bool
	// lastProbe/leaderErr cache the leader-health verdict between
	// TransportStats samples: a full snapshot locks every peer link, so
	// the Submit hot path reuses the last verdict for a probe interval.
	lastProbe time.Time
	leaderErr error

	out  chan network.Envelope
	stop chan struct{}
	done chan struct{}
	// sendCtx bounds the sequencer's own sends (ORDER broadcasts run on
	// the ordering path, not a caller's context); canceled by Close so a
	// blocked enqueue cannot outlive the endpoint.
	sendCtx    context.Context
	sendCancel context.CancelFunc
}

var _ network.TOB = (*Sequencer)(nil)

// New creates a TOB endpoint for node self (1-indexed) with the given
// sequencer (leader) index. It validates the transport's delivery
// guarantees: a lossy queue policy (drop-oldest, fail-fast) on a
// transport without the ack layer is rejected with ErrLossyTransport.
func New(p2p network.P2P, self, leader int) (*Sequencer, error) {
	if ts := p2p.TransportStats(); !ts.Reliable && ts.Policy != network.PolicyBlock {
		return nil, fmt.Errorf("%w (policy %v)", ErrLossyTransport, ts.Policy)
	}
	sendCtx, sendCancel := context.WithCancel(context.Background())
	s := &Sequencer{
		p2p:        p2p,
		self:       self,
		leader:     leader,
		nextSeq:    1,
		nextDel:    1,
		pending:    make(map[int]network.Envelope),
		local:      make(chan network.Envelope),
		out:        make(chan network.Envelope, 1024),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		sendCtx:    sendCtx,
		sendCancel: sendCancel,
	}
	go s.run()
	return s, nil
}

// Submit hands an envelope to the ordering service. After Close it
// fails with ErrClosed; a submission racing Close may be silently
// dropped (as it would be in flight on a real network). On the leader
// Submit returns once the ordering goroutine has taken the envelope;
// on a follower, once the envelope is handed to the transport. When the
// transport reports the leader's link down (dial or write failures
// observed), Submit fails fast with ErrLeaderDown instead of queueing
// into the dead link.
func (s *Sequencer) Submit(ctx context.Context, env network.Envelope) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	env.From = s.self
	if s.self == s.leader {
		select {
		case s.local <- env:
			return nil
		case <-s.stop:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := s.leaderDown(); err != nil {
		return err
	}
	wrapped := network.Envelope{
		From:     s.self,
		Instance: env.Instance,
		Kind:     kindSubmit,
		Payload:  env.Marshal(),
	}
	return s.p2p.Send(ctx, s.leader, wrapped)
}

// leaderProbeInterval paces how often Submit samples TransportStats
// for the leader link's health.
const leaderProbeInterval = 10 * time.Millisecond

// leaderDown returns ErrLeaderDown while the transport reports the
// leader link down with observed failures, sampling the (per-peer
// lock-sweeping) TransportStats snapshot at most once per probe
// interval and reusing the verdict in between.
func (s *Sequencer) leaderDown() error {
	s.mu.Lock()
	if time.Since(s.lastProbe) < leaderProbeInterval {
		err := s.leaderErr
		s.mu.Unlock()
		return err
	}
	s.lastProbe = time.Now()
	s.mu.Unlock()
	var verdict error
	// ConsecutiveFailures distinguishes an observed outage from the
	// initial not-yet-dialed state, which is also reported Down.
	if ps, ok := s.p2p.TransportStats().Peer(s.leader); ok &&
		ps.State == network.PeerDown && ps.ConsecutiveFailures > 0 {
		verdict = fmt.Errorf("%w: peer %d (%s)", ErrLeaderDown, s.leader, ps.LastError)
	}
	s.mu.Lock()
	s.leaderErr = verdict
	s.mu.Unlock()
	return verdict
}

// Delivered returns the totally ordered stream.
func (s *Sequencer) Delivered() <-chan network.Envelope { return s.out }

// Close stops the endpoint.
func (s *Sequencer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.sendCancel()
	close(s.stop)
	// Closing stop unblocks a delivery stuck on a full out channel; run
	// is the only sender on out, so once it has exited out can close.
	<-s.done
	close(s.out)
	return s.p2p.Close()
}

// order assigns the next sequence number and broadcasts the ORDER
// message (leader only).
func (s *Sequencer) order(env network.Envelope) {
	seq := s.nextSeq
	s.nextSeq++
	ordered := network.Envelope{
		From:     s.leader,
		Instance: env.Instance,
		Kind:     kindOrder,
		Round:    seq,
		Payload:  env.Marshal(),
	}
	// Deliver locally and broadcast to the others. The transport
	// enqueues in O(1); sendCtx only bounds a block-policy queue that is
	// full, so a backlogged peer cannot wedge the ordering path past
	// Close.
	s.enqueue(seq, env)
	_ = s.p2p.Broadcast(s.sendCtx, ordered)
}

// enqueue buffers an ordered message and delivers the in-order prefix.
func (s *Sequencer) enqueue(seq int, env network.Envelope) {
	s.pending[seq] = env
	for {
		next, ok := s.pending[s.nextDel]
		if !ok {
			return
		}
		select {
		case s.out <- next:
		case <-s.stop:
			return
		}
		delete(s.pending, s.nextDel)
		s.nextDel++
	}
}

func (s *Sequencer) run() {
	defer close(s.done)
	for {
		select {
		case env := <-s.local:
			s.order(env)
		case env, ok := <-s.p2p.Receive():
			if !ok {
				return
			}
			switch env.Kind {
			case kindSubmit:
				if s.self != s.leader {
					continue // not ours to order
				}
				inner, err := network.UnmarshalEnvelope(env.Payload)
				if err != nil {
					continue
				}
				s.order(inner)
			case kindOrder:
				if env.From != s.leader {
					continue // only the sequencer may order
				}
				inner, err := network.UnmarshalEnvelope(env.Payload)
				if err != nil {
					continue
				}
				s.enqueue(env.Round, inner)
			}
		case <-s.stop:
			return
		}
	}
}

// Validate reports configuration errors early.
func Validate(self, leader, n int) error {
	if self < 1 || self > n || leader < 1 || leader > n {
		return fmt.Errorf("tob: invalid self=%d leader=%d n=%d", self, leader, n)
	}
	return nil
}
