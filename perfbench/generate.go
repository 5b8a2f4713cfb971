package main

import (
	"context"
	"fmt"
	"time"

	"learnedsqlgen/internal/nn"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/service"
)

// generateConstraint is the generate workload's target: job queries whose
// estimated cost lies in [1000, 4000].
var generateConstraint = rl.RangeConstraint(rl.Cost, 1000, 4000)

// runGenerate measures inference alone: set-up trains a generator on job
// and freezes it, then one caller runs a closed loop of library requests.
// A round is a fixed list of requests; the workload seed varies their
// sampler seeds.
func runGenerate(ctx context.Context, opt options) (*outcome, error) {
	sz := opt.size
	var tr *tracer
	reps := sz.setupReps
	if opt.trace {
		tr, reps = newTracer(), 1
	}
	var env *rl.Env
	var actor *nn.SeqNet
	setups := make([]float64, reps)
	checksums := make([]uint32, reps)
	for i := range setups {
		start := time.Now()
		ds, err := service.OpenDataset("job", sz.scale, sz.sampleK, dataSeed)
		if err != nil {
			return nil, err
		}
		trainer := rl.NewTrainer(ds.Env, generateConstraint, trainConfig())
		if err := trainFixed(ctx, trainer, sz.genEp, sz.genEpis, nil); err != nil {
			return nil, fmt.Errorf("set-up training: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		env, actor = ds.Env, trainer.Actor()
		checksums[i] = nn.ChecksumParams(actor.Params())
	}
	if tr != nil {
		env.SetBackend(timedBackend{inner: env.Est, tr: tr})
	}

	p := &phase{}
	nextID := uint64(0)
	err := rounds(opt, tr, func(round int, traced bool) error {
		mark := markRound(tr, env)
		start, cpu0 := time.Now(), cpuTime()
		ops, samplers := libRequests(ctx, env, actor, generateConstraint, sz.genN, sz.genReqs, procs(), opt.seed, &nextID, tr)
		wall, cpu := time.Since(start), cpuTime()-cpu0
		p.roundTTS = append(p.roundTTS, wall.Seconds())
		p.addRound(ops, wall, cpu, traced)
		p.noteLibraryRound(tr, traced, mark, env, samplers)
		return nil
	})
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()

	k, err := newChecker("job", sz)
	if err != nil {
		return nil, err
	}
	out := checkLibrary(ctx, opt, k, p, actor, checksums)
	m := p.e2e(setups, peak)
	fmt.Fprintf(opt.log, "generate: %d requests, accuracy %.4f, estimator hit rate %.3f, set-up seconds %.3f, round seconds %.3f\n",
		len(p.ops), m["accuracy"], env.CacheStats().HitRate(), setups, p.roundTTS)

	if tr == nil {
		out.metrics = m
		return out, nil
	}
	return out, finishTraced(ctx, opt, "generate", env, actor, generateConstraint, p, tr, out)
}
