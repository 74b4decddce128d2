package main

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/client"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/frost"
)

// wallet-sign: wallet custody. Four secure-mode nodes (transport
// identities and a roster) run on loopback TCP; node 1's HTTP handler is
// served on loopback, and two closed-loop client SDK clients send a
// seeded 3:1 KG20:BLS04 signing mix over 32-byte digests. The KG20 key
// is created at set-up by DKG and its FROST nonce pool is warmed; BLS04
// uses a dealt key.

const (
	walletClients   = 2
	walletPoolDepth = 64
	walletKeyID     = "wallet"
	warmSignOps     = 4
	signStreamLen   = 4096
	linkTimeout     = 10 * time.Second
)

type wallet struct {
	seed    int64
	nodes   []*thetacrypt.Node
	srv     *http.Server
	served  chan struct{}
	httpTr  *http.Transport
	cls     []*client.Client
	frostPK *frost.PublicKey
	blsPK   *bls04.PublicKey
	pr      *probes

	ops  []signOp
	next atomic.Int64

	mu     sync.Mutex
	signed []signedOp // window outputs, for the check
}

type signedOp struct {
	op  signOp
	sig []byte
}

func setupWallet(ctx context.Context, seed int64, tr *tracer) (d deployment, st setupTimes, err error) {
	start := time.Now()
	w := &wallet{seed: seed, pr: &probes{}, served: make(chan struct{})}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	stores, err := keys.Deal(rand.Reader, committeeT, committeeN, keys.Options{Schemes: []schemes.ID{thetacrypt.BLS04}})
	if err != nil {
		return nil, st, fmt.Errorf("deal: %w", err)
	}
	ids := make([]*identity.Key, committeeN)
	roster := make(identity.Roster, committeeN)
	for i := range ids {
		if ids[i], err = identity.Generate(rand.Reader, i+1); err != nil {
			return nil, st, fmt.Errorf("identity: %w", err)
		}
		roster[i+1] = ids[i].Public()
	}
	if w.blsPK, err = keys.Public[*bls04.PublicKey](stores[0], thetacrypt.BLS04, ""); err != nil {
		return nil, st, err
	}
	st.deal = time.Since(start)

	linkStart := time.Now()
	for i := range stores {
		n, err := thetacrypt.NewNode(thetacrypt.NodeConfig{
			Keys:       stores[i],
			ListenAddr: "127.0.0.1:0",
			Engine:     thetacrypt.EngineOptions{FrostPoolDepth: walletPoolDepth},
			Identity:   ids[i],
			Roster:     roster,
		})
		if err != nil {
			return nil, st, fmt.Errorf("node %d: %w", i+1, err)
		}
		w.nodes = append(w.nodes, n)
	}
	for i, a := range w.nodes {
		for j, b := range w.nodes {
			if i != j {
				a.SetPeer(j+1, b.P2PAddr())
			}
		}
	}
	if err := w.serve(tr); err != nil {
		return nil, st, err
	}
	// tcpnet dials on first send, so the links' handshakes happen
	// during the DKG; links_s covers starting nodes and listeners.
	st.links = time.Since(linkStart)

	dkgStart := time.Now()
	h, err := w.cls[0].GenerateKey(ctx, thetacrypt.KG20, thetacrypt.GenerateKeyOptions{KeyID: walletKeyID})
	if err != nil {
		return nil, st, fmt.Errorf("dkg: %w", err)
	}
	res, err := w.cls[0].Wait(ctx, h)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		return nil, st, fmt.Errorf("dkg: %w", err)
	}
	if w.frostPK, err = thetacrypt.PublicKeyOf[*frost.PublicKey](stores[0], thetacrypt.KG20, walletKeyID); err != nil {
		return nil, st, err
	}
	if err := w.awaitLinks(ctx); err != nil {
		return nil, st, err
	}
	st.dkg = time.Since(dkgStart)

	warmStart := time.Now()
	for _, n := range w.nodes {
		if err := n.WarmNoncePools(ctx); err != nil {
			return nil, st, fmt.Errorf("warm nonce pool: %w", err)
		}
	}
	st.poolWarm = time.Since(warmStart)
	st.total = time.Since(start)
	return w, st, nil
}

// serve puts node 1's HTTP handler on a loopback listener and points a
// client SDK at it; in a traced run the handler and the client's HTTP
// transport carry the service probes.
func (w *wallet) serve(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("http listen: %w", err)
	}
	var handler http.Handler = w.nodes[0].Handler()
	w.httpTr = &http.Transport{MaxIdleConnsPerHost: 2 * walletClients}
	var rt http.RoundTripper = w.httpTr
	if tr != nil {
		handler = serviceProbe{next: handler, tr: tr, pr: w.pr}
		rt = spanTransport{base: w.httpTr}
	}
	w.srv = &http.Server{Handler: handler}
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	for c := 0; c < walletClients; c++ {
		w.cls = append(w.cls, client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: rt})))
	}
	w.pr.roundTrips = func() int64 {
		var n int64
		for _, cl := range w.cls {
			n += cl.RoundTrips()
		}
		return n
	}
	return nil
}

// awaitLinks waits until every node reports every peer link up (and,
// in secure mode, authenticated).
func (w *wallet) awaitLinks(ctx context.Context) error {
	deadline := time.Now().Add(linkTimeout)
	for {
		up := true
		for _, st := range w.nodeStats() {
			if st.Transport == nil || len(st.Transport.Peers) != committeeN-1 {
				up = false
				break
			}
			for _, p := range st.Transport.Peers {
				up = up && p.State == "up"
			}
		}
		if up {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("peer links did not come up")
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (w *wallet) close() {
	if w.srv != nil {
		_ = w.srv.Close() // forcibly ends open polls; Serve's return is awaited below
		<-w.served
		w.srv = nil
	}
	if w.httpTr != nil {
		w.httpTr.CloseIdleConnections()
	}
	for _, n := range w.nodes {
		n.Close()
	}
	w.nodes = nil
}

func (w *wallet) nodeStats() []api.EngineStats {
	out := make([]api.EngineStats, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.Stats()
	}
	return out
}

func (w *wallet) probes() *probes { return w.pr }

func (w *wallet) warm(ctx context.Context, _ time.Duration) error {
	w.ops = genSignOps(w.seed, signStreamLen)
	for i := 0; i < warmSignOps; i++ {
		res := w.sign(ctx, w.cls[i%walletClients], w.ops[i], nil)
		if res.Err != nil {
			return res.Err
		}
	}
	w.next.Store(warmSignOps)
	w.signed = nil
	return nil
}

// sign runs one request through a client SDK: submit, then wait.
func (w *wallet) sign(ctx context.Context, cl *client.Client, op signOp, tr *tracer) opResult {
	keyID := ""
	if op.Scheme == thetacrypt.KG20 {
		keyID = walletKeyID
	}
	req := thetacrypt.Request{Scheme: op.Scheme, KeyID: keyID, Op: thetacrypt.OpSign, Payload: op.Digest, Session: op.Session}
	opID, subID, waitID := tr.newID(), tr.newID(), tr.newID()
	t0 := time.Now()
	h, err := cl.Submit(withSpan(ctx, subID, opID), req)
	t1 := time.Now()
	tr.record(subID, opID, opID, "client.submit", "", t0, t1)
	if err != nil {
		return opResult{Attr: string(op.Scheme), Latency: t1.Sub(t0), Err: err}
	}
	res, err := cl.Wait(withSpan(ctx, waitID, opID), h)
	t2 := time.Now()
	tr.record(waitID, opID, opID, "client.wait", "", t1, t2)
	tr.record(opID, 0, opID, "op", string(op.Scheme), t0, t2)
	tr.record(0, opID, opID, "engine.server", "", t2.Add(-res.ServerLatency), t2)
	if err == nil {
		err = res.Err
	}
	if err == nil {
		w.mu.Lock()
		w.signed = append(w.signed, signedOp{op: op, sig: res.Value})
		w.mu.Unlock()
	}
	return opResult{Attr: string(op.Scheme), Latency: t2.Sub(t0), Server: res.ServerLatency, Err: err}
}

// drive runs walletClients closed loops until the window ends; requests
// in flight at the end complete and count.
func (w *wallet) drive(ctx context.Context, window time.Duration, tr *tracer) (windowResult, error) {
	start := time.Now()
	deadline := start.Add(window)
	var (
		mu   sync.Mutex
		res  windowResult
		last time.Time
		wg   sync.WaitGroup
		errs = make(chan error, walletClients) // one per client loop, so none blocks
	)
	for _, cl := range w.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(w.next.Add(1) - 1)
				if i >= len(w.ops) {
					errs <- errors.New("signing stream exhausted")
					return
				}
				op := w.sign(ctx, cl, w.ops[i], tr)
				now := time.Now()
				mu.Lock()
				res.ops = append(res.ops, op)
				last = now
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	res.elapsed = last.Sub(start)
	return res, <-errs
}

// check verifies every signature under its key.
func (w *wallet) check(context.Context) (int, error) {
	var wrong atomic.Int64
	err := parallel(len(w.signed), func(i int) error {
		s := w.signed[i]
		var err error
		switch s.op.Scheme {
		case thetacrypt.KG20:
			var sig *frost.Signature
			if sig, err = frost.UnmarshalSignature(w.frostPK.Group, s.sig); err == nil {
				err = frost.Verify(w.frostPK, s.op.Digest, sig)
			}
		case thetacrypt.BLS04:
			var sig *bls04.Signature
			if sig, err = bls04.UnmarshalSignature(s.sig); err == nil {
				err = bls04.Verify(w.blsPK, s.op.Digest, sig)
			}
		default:
			err = fmt.Errorf("unexpected scheme %s", s.op.Scheme)
		}
		if err != nil {
			wrong.Add(1)
		}
		return nil
	})
	return int(wrong.Load()), err
}
