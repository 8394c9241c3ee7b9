package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/sampling"
)

const (
	sampleBatch = 256
	// samplePool is how many distinct batches a run generates; a run that
	// outlasts the pool starts over at the first batch.
	samplePool = 4096
	// sampleWarm batches run in set-up, from the end of the pool.
	sampleWarm = 32
)

var sampleHops = []int{10, 5}

// sampleInputs are NEIGHBORHOOD requests with uniformly drawn seed vertices,
// each with the seed of its draw stream.
type sampleInputs struct {
	batches [][]graph.ID
	seeds   []uint64
}

func genSampleInputs(seed int64, vertices, n int) sampleInputs {
	rng := rand.New(rand.NewSource(seed))
	in := sampleInputs{batches: make([][]graph.ID, n), seeds: make([]uint64, n)}
	for i := range in.batches {
		b := make([]graph.ID, sampleBatch)
		for j := range b {
			b[j] = graph.ID(rng.Intn(vertices))
		}
		in.batches[i] = b
		in.seeds[i] = rng.Uint64()
	}
	return in
}

// checksum mixes every sampled ID of ctx, layer by layer, in order.
func checksum(ctx *sampling.Context) uint64 {
	h := uint64(14695981039346656037)
	for _, layer := range ctx.Layers {
		for _, v := range layer {
			h ^= uint64(v)
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

// sampleInst is a closed loop of NEIGHBORHOOD mini-batches over the wire.
type sampleInst struct {
	lb *loopback
	in sampleInputs
	nb *sampling.Neighborhood
}

func setupSampleWire(seed int64, tr *tracer) (instance, phases, error) {
	var ph phases
	lb, err := newLoopback(seed, tr, &ph)
	if err != nil {
		return nil, ph, err
	}
	s := &sampleInst{lb: lb, nb: lb.cp.Neighborhood()}
	err = timed(&ph.warmup, func() error {
		s.in = genSampleInputs(seed, lb.g.NumVertices(), samplePool)
		ctx := &sampling.Context{}
		for i := samplePool - sampleWarm; i < samplePool; i++ {
			if err := s.nb.SampleInto(ctx, 0, s.in.batches[i], sampleHops, sampling.NewRng(s.in.seeds[i])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		lb.Close()
		return nil, ph, err
	}
	return s, ph, nil
}

func (s *sampleInst) run(d time.Duration, tr *tracer) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	var m0 mark
	if tr != nil {
		m0 = s.lb.mark(tr)
	}
	var sums []uint64
	ctx := &sampling.Context{}
	w := openWindow()
	for i := 0; time.Since(w.t0) < d; i++ {
		k := i % samplePool
		var id, start int64
		if tr != nil {
			id, start = tr.begin(int64(i + 1))
		}
		t0 := time.Now()
		err := s.nb.SampleInto(ctx, 0, s.in.batches[k], sampleHops, sampling.NewRng(s.in.seeds[k]))
		lat := time.Since(t0)
		if tr != nil {
			tr.end("SampleInto", id, start)
		}
		p.attempted++
		if err != nil {
			p.failed++
			p.lat = append(p.lat, math.Inf(1))
			sums = append(sums, 0)
			continue
		}
		p.lat = append(p.lat, ms(float64(lat)))
		sums = append(sums, checksum(ctx))
	}
	p.win = w.close()
	ok := p.attempted - p.failed
	if ok == 0 {
		return nil, fmt.Errorf("no batch succeeded")
	}
	p.closedLoop(ok, 1)

	// The reference draws the same batches from the local graph.
	ref := sampling.NewNeighborhood(sampling.NewGraphSource(s.lb.g), rand.New(rand.NewSource(1)))
	bad := 0
	for i, sum := range sums {
		k := i % samplePool
		if math.IsInf(p.lat[i], 1) {
			continue
		}
		if err := ref.SampleInto(ctx, 0, s.in.batches[k], sampleHops, sampling.NewRng(s.in.seeds[k])); err != nil {
			return nil, fmt.Errorf("local reference: %w", err)
		}
		if checksum(ctx) != sum {
			bad++
		}
	}
	p.gate("sample.ids_match_local", bad == 0, fmt.Sprintf("%d of %d batches differ from the local GraphSource", bad, ok))

	q := tailQuantile(len(p.lat), 0.99)
	p.reportf("sample_batches_per_s %.1f batches/s (%d batches over %v)", p.throughput, ok, p.win.elapsed.Round(time.Millisecond))
	p.reportf("sample_batch_ms_p%g %.3f ms (n=%d, %d beyond)", q*100, quantile(append([]float64(nil), p.lat...), q), len(p.lat), beyond(len(p.lat), q))
	p.reportf("SampleInto p%g %.3f ms (latency_ms_tail)", p.tailQ*100, p.tail)
	p.reportf("sample_cpu_ms_per_batch %.3f ms", p.cpuPerOp)
	p.reportf("error_rate %.4f (%d of %d batches failed)", float64(p.failed)/float64(p.attempted), p.failed, p.attempted)

	if tr != nil {
		runtimeLayers(p, ok)
		s.lb.collect(p, tr, m0, ok)
		var spans []span
		for _, sp := range tr.snapshot() {
			if sp.Start >= m0.at {
				spans = append(spans, sp)
			}
		}
		n, total, self, blocking := rootStats(spans, "SampleInto")
		if n > 0 {
			p.layer["client.sample_into_ms_per_batch"] = ms(float64(total)) / float64(n)
			p.layer["client.self_ms_per_batch"] = ms(float64(self)) / float64(n)
			p.layer["client.rpc_blocking_ms_per_batch"] = ms(float64(blocking)) / float64(n)
		}
	}
	return p, nil
}

func (s *sampleInst) Close() error { return s.lb.Close() }
