package main

import (
	"time"

	"repro/internal/obs"
)

// perLayer lists the metrics every traced run prints, in BENCHMARK.json
// order. A layer a workload does not cross reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"setup.graph_s", "s"},
		{"setup.partition_s", "s"},
		{"setup.shards_s", "s"},
		{"setup.connect_s", "s"},
		{"setup.warmup_s", "s"},
		{"pipeline.next_wait_ms_per_step", "ms"},
		{"pipeline.consume_ms_per_step", "ms"},
		{"pipeline.sample_ms_per_batch", "ms"},
		{"pipeline.schedule_ms_per_batch", "ms"},
		{"pipeline.prefetch_ms_per_batch", "ms"},
		{"pipeline.parks", "count"},
		{"pipeline.replays", "count"},
	}
	for _, m := range hotMethods {
		defs = append(defs,
			metricDef{"rpc." + m + ".calls_per_op", "1/op"},
			metricDef{"rpc." + m + ".ms_p50", "ms"},
			metricDef{"rpc." + m + ".ms_p99", "ms"},
			metricDef{"rpc." + m + ".errors_per_op", "1/op"})
	}
	defs = append(defs,
		metricDef{"rpc.retries_per_op", "1/op"},
		metricDef{"wire.tx_bytes_per_op", "B/op"},
		metricDef{"wire.rx_bytes_per_op", "B/op"})
	for _, m := range replayMethods {
		defs = append(defs,
			metricDef{"rpc." + m + ".overhead_us_p50", "us"},
			metricDef{"server." + m + ".handler_us_p50", "us"})
	}
	return append(defs,
		metricDef{"client.sample_into_ms_per_batch", "ms"},
		metricDef{"client.self_ms_per_batch", "ms"},
		metricDef{"client.rpc_blocking_ms_per_batch", "ms"},
		metricDef{"cache.neighbor_hit_ratio", "ratio"},
		metricDef{"cache.neighbor_epoch_miss_ratio", "ratio"},
		metricDef{"serve.embed_hit_ratio", "ratio"},
		metricDef{"serve.stale_rejects", "count"},
		metricDef{"serve.invalidated_per_update", "count"},
		metricDef{"serve.encoder_ms_per_flush", "ms"},
		metricDef{"serve.vertices_per_flush", "count"},
		metricDef{"serve.requests_per_embedded", "ratio"},
		metricDef{"serve.refreshed", "count"},
		metricDef{"serve.revalidated", "count"},
		metricDef{"gen.late_ms_max", "ms"},
		metricDef{"version.epochs_applied", "count"},
		metricDef{"go.allocs_per_op", "1/op"},
		metricDef{"go.alloc_bytes_per_op", "B/op"},
		metricDef{"go.gc_cpu_ms_per_op", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

func ms(ns float64) float64 { return ns / 1e6 }

// runtimeLayers fills the Go runtime metrics of p per op.
func runtimeLayers(p *pass, ops int) {
	n := float64(max(ops, 1))
	p.layer["go.allocs_per_op"] = float64(p.win.allocs) / n
	p.layer["go.alloc_bytes_per_op"] = float64(p.win.bytes) / n
	p.layer["go.gc_cpu_ms_per_op"] = p.win.gcCPU * 1e3 / n
}

// mark is the state of a loopback deployment's counters when a measured
// window opens; collect reports the differences.
type mark struct {
	at             int64 // tracer clock
	retries        int64
	tx, rx         int64
	hit, miss, epo int64
}

// mark also drops the requests kept during set-up, so the handler replay
// sees only the window's.
func (lb *loopback) mark(tr *tracer) mark {
	lb.tt.dropCaptures()
	m := mark{at: tr.now(), retries: lb.retry.Retries()}
	m.tx, m.rx = lb.wireBytes()
	m.hit, m.miss, m.epo = lb.lru.Counters()
	return m
}

// collect fills p's transport, wire, handler, cache and version metrics
// from the spans and counters after m, per op.
func (lb *loopback) collect(p *pass, tr *tracer, m mark, ops int) {
	n := float64(max(ops, 1))
	durs := map[string][]float64{}
	errs := map[string]int{}
	for _, s := range tr.snapshot() {
		if s.Start < m.at {
			continue
		}
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		if s.Err {
			errs[s.Name]++
		}
	}
	// In the traced pass every call also crosses the byte-counting relay,
	// so these client-side timings, and the overhead over the handler
	// below, include the relay's loopback hop and copies.
	p50us := map[string]float64{}
	for _, meth := range hotMethods {
		d := durs["rpc."+meth]
		p.layer["rpc."+meth+".calls_per_op"] = float64(len(d)) / n
		p.layer["rpc."+meth+".errors_per_op"] = float64(errs["rpc."+meth]) / n
		if len(d) > 0 {
			p50us[meth] = quantile(d, 0.5) / 1e3
			p.layer["rpc."+meth+".ms_p50"] = ms(quantile(d, 0.5))
			p.layer["rpc."+meth+".ms_p99"] = ms(quantile(d, 0.99))
		}
	}
	p.layer["rpc.retries_per_op"] = float64(lb.retry.Retries()-m.retries) / n
	tx, rx := lb.wireBytes()
	p.layer["wire.tx_bytes_per_op"] = float64(tx-m.tx) / n
	p.layer["wire.rx_bytes_per_op"] = float64(rx-m.rx) / n
	for meth, hs := range lb.tt.replay(lb.servers) {
		h := quantile(hs, 0.5) / 1e3
		p.layer["server."+meth+".handler_us_p50"] = h
		if c, ok := p50us[meth]; ok {
			p.layer["rpc."+meth+".overhead_us_p50"] = c - h
		}
	}
	hit, miss, epo := lb.lru.Counters()
	hit, miss, epo = hit-m.hit, miss-m.miss, epo-m.epo
	if base := float64(hit + miss + epo); base > 0 {
		p.layer["cache.neighbor_hit_ratio"] = float64(hit) / base
		p.layer["cache.neighbor_epoch_miss_ratio"] = float64(epo) / base
	}
	p.layer["version.epochs_applied"] = float64(lb.epochs())
	p.reportf("neighbor cache over the window: %d hits, %d misses, %d epoch misses", hit, miss, epo)
}

// histDelta is the change of a histogram between two snapshots, in count and
// summed nanoseconds.
func histDelta(a, b obs.Snapshot, name string) (count int64, sum time.Duration) {
	x, y := a.Histograms[name], b.Histograms[name]
	return y.Count - x.Count, time.Duration(y.Sum - x.Sum)
}
