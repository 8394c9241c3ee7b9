package main

import (
	"fmt"
	"math"
	"time"

	aligraph "repro"
	"repro/internal/obs"
)

// trainWarmSteps run in set-up, so the pipeline is full and the caches
// have started filling before timing.
const trainWarmSteps = 5

// trainConfig is DefaultTrainConfig (dim 32, hops [5,3], batch 64, NegK 4)
// with vertex attributes and a depth-4 prefetch pipeline.
func trainConfig(workers int) aligraph.TrainConfig {
	cfg := aligraph.DefaultTrainConfig()
	cfg.UseAttrs = true
	cfg.Pipeline = aligraph.PipelineConfig{Depth: 4, Workers: workers}
	return cfg
}

// trainInst is a GraphSAGE link-training job: a closed loop of Train(1)
// calls by one trainer.
type trainInst struct {
	trainer *aligraph.Trainer
	batch   int
	lb      *loopback     // nil for train-local
	reg     *obs.Registry // pipeline registry, traced runs only
}

func setupTrainWire(seed int64, tr *tracer) (instance, phases, error) {
	var ph phases
	lb, err := newLoopback(seed, tr, &ph)
	if err != nil {
		return nil, ph, err
	}
	inst := &trainInst{lb: lb}
	err = timed(&ph.warmup, func() error {
		cfg := trainConfig(2)
		t, err := lb.cp.NewGraphSAGE(cfg)
		if err != nil {
			return err
		}
		inst.trainer, inst.batch = t, cfg.Batch
		return inst.warm(tr)
	})
	if err != nil {
		inst.Close()
		return nil, ph, err
	}
	return inst, ph, nil
}

func setupTrainLocal(seed int64, tr *tracer) (instance, phases, error) {
	var ph phases
	var g *aligraph.Graph
	_ = timed(&ph.graph, func() error { g = buildGraph(); return nil })
	var platform *aligraph.Platform
	err := timed(&ph.shards, func() error {
		cfg := aligraph.DefaultConfig()
		cfg.Seed = seed
		var err error
		platform, err = aligraph.NewPlatform(g, cfg)
		return err
	})
	if err != nil {
		return nil, ph, err
	}
	inst := &trainInst{}
	err = timed(&ph.warmup, func() error {
		cfg := trainConfig(1)
		inst.trainer, inst.batch = platform.NewGraphSAGE(cfg), cfg.Batch
		return inst.warm(tr)
	})
	if err != nil {
		inst.Close()
		return nil, ph, err
	}
	return inst, ph, nil
}

func (t *trainInst) warm(tr *tracer) error {
	if tr != nil {
		t.reg = obs.NewRegistry()
		t.trainer.RegisterObs(t.reg)
	}
	_, err := t.trainer.Train(trainWarmSteps)
	return err
}

func (t *trainInst) run(d time.Duration, tr *tracer) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	var (
		snap0 obs.Snapshot
		m0    mark
	)
	if tr != nil {
		snap0 = t.reg.Snapshot()
		if t.lb != nil {
			m0 = t.lb.mark(tr)
		}
	}
	w := openWindow()
	var op int64
	for time.Since(w.t0) < d {
		op++
		var id, start int64
		if tr != nil {
			id, start = tr.begin(op)
		}
		t0 := time.Now()
		losses, err := t.trainer.Train(1)
		lat := time.Since(t0)
		if tr != nil {
			tr.end("Train", id, start)
		}
		p.attempted++
		if err != nil {
			p.failed++
			p.lat = append(p.lat, math.Inf(1))
			continue
		}
		p.lat = append(p.lat, ms(float64(lat)))
		p.losses = append(p.losses, losses...)
	}
	p.win = w.close()
	steps := len(p.losses)
	if steps == 0 {
		return nil, fmt.Errorf("no training step succeeded")
	}
	p.closedLoop(steps, float64(t.batch))

	finite := true
	for _, l := range p.losses {
		finite = finite && !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	p.gate("train.loss_finite", finite, fmt.Sprintf("%d steps", steps))
	last := p.losses[max(0, steps-100):]
	var sum float64
	for _, l := range last {
		sum += l
	}
	p.reportf("train_edges_per_s %.1f edges/s (%d steps over %v)", p.throughput, steps, p.win.elapsed.Round(time.Millisecond))
	p.reportf("train_step_ms_p%g %.3f ms (n=%d, %d beyond)", p.tailQ*100, p.tail, len(p.lat), beyond(len(p.lat), p.tailQ))
	p.reportf("train_cpu_ms_per_step %.3f ms", p.cpuPerOp)
	p.reportf("train_loss %.6f (mean of the last %d steps)", sum/float64(len(last)), len(last))
	p.reportf("error_rate %.4f (%d of %d steps failed)", float64(p.failed)/float64(p.attempted), p.failed, p.attempted)

	if tr != nil {
		snap := t.reg.Snapshot()
		n := float64(steps)
		_, wait := histDelta(snap0, snap, "core.pipeline.next_wait.latency")
		_, consume := histDelta(snap0, snap, "core.pipeline.stage.consume.latency")
		p.layer["pipeline.next_wait_ms_per_step"] = ms(float64(wait)) / n
		p.layer["pipeline.consume_ms_per_step"] = ms(float64(consume)) / n
		for _, stage := range []string{"sample", "schedule", "prefetch"} {
			c, s := histDelta(snap0, snap, "core.pipeline.stage."+stage+".latency")
			if c > 0 {
				p.layer["pipeline."+stage+"_ms_per_batch"] = ms(float64(s)) / float64(c)
			}
		}
		p.layer["pipeline.parks"] = float64(snap.Counters["core.pipeline.parks"] - snap0.Counters["core.pipeline.parks"])
		p.layer["pipeline.replays"] = float64(snap.Counters["core.pipeline.replays"] - snap0.Counters["core.pipeline.replays"])
		runtimeLayers(p, steps)
		if t.lb != nil {
			t.lb.collect(p, tr, m0, steps)
		}
	}
	return p, nil
}

func (t *trainInst) Close() error {
	var err error
	if t.trainer != nil {
		err = t.trainer.Close()
	}
	if t.lb != nil {
		if cerr := t.lb.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
