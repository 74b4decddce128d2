package main

import "time"

// metricDef names one metric with its unit and direction; BENCHMARK.json
// carries the same lists (with the end-to-end bounds), and a test keeps
// the two in step.
type metricDef struct {
	Name, Unit, Better string
}

var endToEndDefs = []metricDef{
	{"throughput_ops", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"rss_p95_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerDefs lists the traced run's metrics. Every traced run reports
// all of them; a layer a workload does not pass through reads 0 (for
// example tob.* on beacon, client.* and service.* on the memnet
// workloads, network.bytes_per_op and network.send_us_p50 on tcpnet,
// whose frames are not observable from outside the node).
var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, r := range rungNames {
		unit := "us"
		if r[len(r)-2:] == "ms" {
			unit = "ms"
		}
		defs = append(defs, metricDef{r, unit, "lower"}, metricDef{allocName(r), "allocs", "lower"})
	}
	return append(defs, []metricDef{
		{"crypto.explained_frac", "ratio", "higher"},
		{"precompute.lagrange_hit_frac", "ratio", "higher"},
		{"precompute.relations_per_batch", "count", "higher"},
		{"precompute.coalesced_per_op", "count/op", "higher"},
		{"precompute.batch_fallbacks", "count", "lower"},
		{"precompute.nonce_exhaustions", "count", "lower"},
		{"precompute.nonce_refills_per_op", "count/op", "lower"},
		{"engine.server_ms_p50", "ms", "lower"},
		{"engine.server_ms_p95", "ms", "lower"},
		{"engine.outside_ms_p50", "ms", "lower"},
		{"engine.queue_depth_max", "count", "lower"},
		{"engine.live_max", "count", "lower"},
		{"engine.rejected_shares", "count", "lower"},
		{"engine.overloaded", "count", "lower"},
		{"engine.partial_broadcasts", "count", "lower"},
		{"scheme.kg20_ms_p50", "ms", "lower"},
		{"scheme.bls04_ms_p50", "ms", "lower"},
		{"network.frames_per_op", "frames/op", "lower"},
		{"network.bytes_per_op", "B/op", "lower"},
		{"network.send_us_p50", "us", "lower"},
		{"network.resent", "count", "lower"},
		{"network.dropped", "count", "lower"},
		{"network.peer_queue_max", "count", "lower"},
		{"tob.order_ms_p50", "ms", "lower"},
		{"tob.order_ms_p95", "ms", "lower"},
		{"tob.block_ms", "ms", "lower"},
		{"client.round_trips_per_op", "count/op", "lower"},
		{"client.submit_ms_p50", "ms", "lower"},
		{"client.wait_ms_p50", "ms", "lower"},
		{"service.submit_ms_p50", "ms", "lower"},
		{"service.results_ms_p50", "ms", "lower"},
		{"service.self_ms_p50", "ms", "lower"},
		{"service.bytes_per_op", "B/op", "lower"},
		{"setup.deal_s", "s", "lower"},
		{"setup.dkg_s", "s", "lower"},
		{"setup.links_s", "s", "lower"},
		{"setup.pool_warm_s", "s", "lower"},
		{"bench.trace_overhead_frac", "ratio", "lower"},
	}...)
}()

// perLayer computes the traced run's metrics: plain is the untraced
// half of the window, traced the half with spans and probes on, delta
// the counter changes over the traced half.
func perLayer(w workload, plain, traced windowResult, delta layerSnap, ix spanIndex,
	rungs map[string]rungResult, setups []setupTimes) map[string]metric {
	units := map[string]string{}
	for _, d := range perLayerDefs {
		units[d.Name] = d.Unit
	}
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{v, units[name]} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops := float64(len(traced.ops))

	explained := 0.0
	for _, r := range rungNames {
		res := rungs[r]
		if units[r] == "ms" {
			set(r, ms(res.perCall))
		} else {
			set(r, us(res.perCall))
		}
		set(allocName(r), res.allocs)
		explained += ms(res.perCall) * w.calls[r]
	}
	set("crypto.explained_frac", ratio(explained, ms(plain.cpu)/float64(len(plain.ops))))

	c := delta.crypto
	set("precompute.lagrange_hit_frac", ratio(float64(c.LagrangeHits), float64(c.LagrangeHits+c.LagrangeMisses)))
	set("precompute.relations_per_batch", ratio(float64(c.BatchedRelations), float64(c.BatchesVerified)))
	set("precompute.coalesced_per_op", ratio(float64(c.CoalescedRequests), ops))
	set("precompute.batch_fallbacks", float64(c.BatchFallbacks))
	set("precompute.nonce_exhaustions", float64(c.NonceExhaustions))
	set("precompute.nonce_refills_per_op", ratio(float64(c.NonceRefills), ops))

	var server, outside []float64
	for _, op := range traced.ops {
		if op.Err == nil {
			server = append(server, ms(op.Server))
			outside = append(outside, ms(op.Latency-op.Server))
		}
	}
	set("engine.server_ms_p50", percentile(server, 50))
	set("engine.server_ms_p95", percentile(server, 95))
	set("engine.outside_ms_p50", percentile(outside, 50))
	set("engine.queue_depth_max", float64(delta.maxima.queueDepth))
	set("engine.live_max", float64(delta.maxima.live))
	set("engine.rejected_shares", float64(delta.rejected))
	set("engine.overloaded", float64(delta.overloaded))
	set("engine.partial_broadcasts", float64(delta.partial))
	set("scheme.kg20_ms_p50", percentile(latencies(traced.ops, "KG20"), 50))
	set("scheme.bls04_ms_p50", percentile(latencies(traced.ops, "BLS04"), 50))

	// memnet frames are counted by the P2P probe; tcpnet's from the
	// links' sent counters.
	frames := float64(delta.frames)
	if frames == 0 {
		frames = float64(delta.sent)
	}
	set("network.frames_per_op", ratio(frames, ops))
	set("network.bytes_per_op", ratio(float64(delta.bytes), ops))
	set("network.send_us_p50", percentile(ix.durations("network.send", "", us), 50))
	set("network.resent", float64(delta.resent))
	set("network.dropped", float64(delta.dropped))
	set("network.peer_queue_max", float64(delta.maxima.peerQueue))

	order := ix.durations("tob.order", "", ms)
	set("tob.order_ms_p50", percentile(order, 50))
	set("tob.order_ms_p95", percentile(order, 95))
	set("tob.block_ms", percentile(ix.durations("tob.block", "", ms), 50))

	set("client.round_trips_per_op", ratio(float64(delta.trips), ops))
	set("client.submit_ms_p50", percentile(ix.durations("client.submit", "", ms), 50))
	set("client.wait_ms_p50", percentile(ix.durations("client.wait", "", ms), 50))
	set("service.submit_ms_p50", percentile(ix.durations("service.submit", "", ms), 50))
	set("service.results_ms_p50", percentile(ix.durations("service.results", "", ms), 50))
	// A client call's self time is its latency minus the handler time of
	// the request it issued: the HTTP layer's own share.
	self := append(ix.selfTimes("client.submit", ms), ix.selfTimes("client.wait", ms)...)
	set("service.self_ms_p50", percentile(self, 50))
	set("service.bytes_per_op", ratio(float64(delta.httpBytes), ops))

	part := func(f func(setupTimes) time.Duration) float64 {
		v := make([]float64, len(setups))
		for i, s := range setups {
			v[i] = f(s).Seconds()
		}
		return median(v)
	}
	set("setup.deal_s", part(func(s setupTimes) time.Duration { return s.deal }))
	set("setup.dkg_s", part(func(s setupTimes) time.Duration { return s.dkg }))
	set("setup.links_s", part(func(s setupTimes) time.Duration { return s.links }))
	set("setup.pool_warm_s", part(func(s setupTimes) time.Duration { return s.poolWarm }))

	plainTput := float64(len(plain.ops)) / plain.elapsed.Seconds()
	tracedTput := ops / traced.elapsed.Seconds()
	set("bench.trace_overhead_frac", 1-ratio(tracedTput, plainTput))
	return out
}
