package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/network"
)

// Layer probes: wrappers the benchmark puts around each layer's public
// boundary (the engine's P2P transport, the node's HTTP handler, the
// client SDK's HTTP transport). They count and time calls only while
// the tracer records, so the untraced half of a traced run pays a
// single atomic load per call.

// probes are the counters the wrappers keep.
type probes struct {
	frames, bytes atomic.Int64 // frames handed to the P2P transport, and their encoded size
	httpBytes     atomic.Int64 // request plus response body bytes through the HTTP handler
	roundTrips    func() int64 // the client SDK's HTTP request count, when a client is used
}

// tracedP2P wraps one node's transport on memnet. Sends are asynchronous
// enqueues, so the timed span is the cost of handing a frame over.
type tracedP2P struct {
	network.P2P
	tr *tracer
	pr *probes
}

func (p *tracedP2P) Send(ctx context.Context, to int, env network.Envelope) error {
	if !p.tr.recording() {
		return p.P2P.Send(ctx, to, env)
	}
	start := time.Now()
	err := p.P2P.Send(ctx, to, env)
	p.tr.record(0, 0, 0, "network.send", "", start, time.Now())
	p.pr.frames.Add(1)
	p.pr.bytes.Add(int64(len(env.Marshal())))
	return err
}

func (p *tracedP2P) Broadcast(ctx context.Context, env network.Envelope) error {
	if !p.tr.recording() {
		return p.P2P.Broadcast(ctx, env)
	}
	start := time.Now()
	err := p.P2P.Broadcast(ctx, env)
	p.tr.record(0, 0, 0, "network.send", "", start, time.Now())
	const peers = committeeN - 1
	p.pr.frames.Add(peers)
	p.pr.bytes.Add(int64(peers * len(env.Marshal())))
	return err
}

// spanHeader carries the client-side span (and its operation) to the
// server-side handler probe, linking the two in the trace.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

type spanRef struct{ id, op int64 }

// withSpan attaches a client span to a call's context.
func withSpan(ctx context.Context, id, op int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

// spanTransport stamps the caller's span onto every HTTP request the
// client SDK issues.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.id, ref.op))
	}
	return t.base.RoundTrip(r)
}

// serviceProbe times the HTTP front's submit and results handlers and
// counts the body bytes they read and write.
type serviceProbe struct {
	next http.Handler
	tr   *tracer
	pr   *probes
}

func (s serviceProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var name string
	switch r.URL.Path {
	case "/v2/protocol/submit":
		name = "service.submit"
	case "/v2/protocol/results":
		name = "service.results"
	}
	if name == "" || !s.tr.recording() {
		s.next.ServeHTTP(w, r)
		return
	}
	var parent, op int64
	// A request without the header (or with a malformed one) is recorded
	// without a parent.
	_, _ = fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &parent, &op)
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	s.next.ServeHTTP(cw, r)
	s.tr.record(0, parent, op, name, "", start, time.Now())
	s.pr.httpBytes.Add(body.n.Load() + cw.n)
}

type countingBody struct {
	io.ReadCloser
	n atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countingWriter counts response bytes and keeps the writer flushable
// (the results stream is server-sent events).
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// layerSnap is a point-in-time sum of every node's public counters and
// the probes' counters.
type layerSnap struct {
	crypto                        api.CryptoStats
	rejected, overloaded, partial uint64
	sent, resent, dropped         uint64
	frames, bytes, httpBytes      int64
	trips                         int64
	maxima                        maxima
}

// maxima are the sampled high-water marks of a window.
type maxima struct{ queueDepth, live, peerQueue int }

func snapLayers(d deployment) layerSnap {
	var s layerSnap
	for _, st := range d.nodeStats() {
		s.rejected += st.RejectedShares
		s.overloaded += st.Overloaded
		s.partial += st.PartialBroadcasts
		if c := st.Crypto; c != nil {
			s.crypto.LagrangeHits += c.LagrangeHits
			s.crypto.LagrangeMisses += c.LagrangeMisses
			s.crypto.NonceRefills += c.NonceRefills
			s.crypto.NonceExhaustions += c.NonceExhaustions
			s.crypto.BatchesVerified += c.BatchesVerified
			s.crypto.BatchedRelations += c.BatchedRelations
			s.crypto.BatchFallbacks += c.BatchFallbacks
			s.crypto.CoalescedRequests += c.CoalescedRequests
		}
		if st.Transport != nil {
			for _, p := range st.Transport.Peers {
				s.sent += p.Sent
				s.resent += p.Resent
				s.dropped += p.Dropped
			}
		}
	}
	pr := d.probes()
	s.frames, s.bytes, s.httpBytes = pr.frames.Load(), pr.bytes.Load(), pr.httpBytes.Load()
	if pr.roundTrips != nil {
		s.trips = pr.roundTrips()
	}
	return s
}

// minus returns the counter deltas a-b.
func (a layerSnap) minus(b layerSnap) layerSnap {
	d := a
	d.crypto.LagrangeHits -= b.crypto.LagrangeHits
	d.crypto.LagrangeMisses -= b.crypto.LagrangeMisses
	d.crypto.NonceRefills -= b.crypto.NonceRefills
	d.crypto.NonceExhaustions -= b.crypto.NonceExhaustions
	d.crypto.BatchesVerified -= b.crypto.BatchesVerified
	d.crypto.BatchedRelations -= b.crypto.BatchedRelations
	d.crypto.BatchFallbacks -= b.crypto.BatchFallbacks
	d.crypto.CoalescedRequests -= b.crypto.CoalescedRequests
	d.rejected -= b.rejected
	d.overloaded -= b.overloaded
	d.partial -= b.partial
	d.sent -= b.sent
	d.resent -= b.resent
	d.dropped -= b.dropped
	d.frames -= b.frames
	d.bytes -= b.bytes
	d.httpBytes -= b.httpBytes
	d.trips -= b.trips
	return d
}

// sampler polls every node's engine and links during the traced window
// for queue and liveness high-water marks.
type sampler struct {
	stopc chan struct{}
	done  chan maxima
}

const samplePeriod = 10 * time.Millisecond

func startSampler(d deployment) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan maxima, 1)}
	go func() {
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		var m maxima
		for {
			select {
			case <-s.stopc:
				s.done <- m
				return
			case <-t.C:
				for _, st := range d.nodeStats() {
					m.queueDepth = max(m.queueDepth, st.QueueDepth)
					m.live = max(m.live, st.Live)
					if st.Transport != nil {
						for _, p := range st.Transport.Peers {
							m.peerQueue = max(m.peerQueue, p.QueueDepth)
						}
					}
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the high-water marks.
func (s *sampler) stop() maxima {
	close(s.stopc)
	return <-s.done
}
