package main

import (
	"time"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/internal/committee"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/schemes"
)

const (
	committeeT = 1
	committeeN = 4
)

// memCluster is an embedded n=4, t=1 committee over memnet. The
// untraced stack is a thetacrypt.NewCluster; the traced stack is the
// same committee built through committee.New, whose engine hook wraps
// every node's P2P transport with a tracedP2P probe.
type memCluster struct {
	svc     api.Service
	store   func(i int) *keys.Keystore
	stats   func(i int) api.EngineStats
	closeFn func()
	pr      *probes
}

func newMemCluster(scheme schemes.ID, latency time.Duration, tr *tracer) (*memCluster, error) {
	if tr == nil {
		c, err := thetacrypt.NewCluster(committeeT, committeeN, thetacrypt.ClusterOptions{
			Schemes: []thetacrypt.SchemeID{scheme},
			Latency: latency,
		})
		if err != nil {
			return nil, err
		}
		return &memCluster{svc: c, store: c.KeystoreAt, stats: c.StatsAt, closeFn: c.Close, pr: &probes{}}, nil
	}
	pr := &probes{}
	com, err := committee.New(committeeT, committeeN, committee.Config{
		Schemes: []schemes.ID{scheme},
		Latency: latency,
		Engine: func(cfg orchestration.Config) orchestration.Config {
			cfg.Net = &tracedP2P{P2P: cfg.Net, tr: tr, pr: pr}
			return cfg
		},
	})
	if err != nil {
		return nil, err
	}
	return &memCluster{
		svc:     com,
		store:   func(i int) *keys.Keystore { return com.UnitAt(i).Store },
		stats:   func(i int) api.EngineStats { return com.UnitAt(i).Stats() },
		closeFn: com.Close,
		pr:      pr,
	}, nil
}

func (m *memCluster) nodeStats() []api.EngineStats {
	out := make([]api.EngineStats, committeeN)
	for i := range out {
		out[i] = m.stats(i + 1)
	}
	return out
}
