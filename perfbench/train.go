package main

import (
	"context"
	"fmt"
	"time"

	"learnedsqlgen/internal/baselines"
	"learnedsqlgen/internal/nn"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/service"
)

// trainConstraint is the train workload's target: tpch queries returning
// 100 to 400 rows.
var trainConstraint = rl.RangeConstraint(rl.Cardinality, 100, 400)

// runTrain is the paper's time-to-N including training (Figs. 6/7). Each
// round trains a fresh generator on a fixed epochs × episodes budget with
// a cold estimator cache, then sends generation requests until N
// satisfied queries are in hand. Every round does the same training work;
// the workload seed varies the generation requests.
func runTrain(ctx context.Context, opt options) (*outcome, error) {
	sz := opt.size
	var tr *tracer
	reps := sz.setupReps
	if opt.trace {
		tr, reps = newTracer(), 1
	}
	var ds *service.Dataset
	setups := make([]float64, reps)
	for i := range setups {
		start := time.Now()
		d, err := service.OpenDataset("tpch", sz.scale, sz.sampleK, dataSeed)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
		ds = d
	}
	env := ds.Env
	if tr != nil {
		env.SetBackend(timedBackend{inner: env.Est, tr: tr})
	}

	p := &phase{}
	var actor *nn.SeqNet
	var checksums []uint32
	nextID := uint64(0)
	err := rounds(opt, tr, func(round int, traced bool) error {
		env.Cache.Reset()
		mark := markRound(tr, env)
		trainer := rl.NewTrainer(env, trainConstraint, trainConfig())
		start := time.Now()
		if err := trainFixed(ctx, trainer, sz.trainEp, sz.trainEpis, tr); err != nil {
			return fmt.Errorf("round %d training: %w", round, err)
		}
		trainWall := time.Since(start)
		actor = trainer.Actor()
		checksums = append(checksums, nn.ChecksumParams(actor.Params()))

		genStart, cpu0 := time.Now(), cpuTime()
		ops, gen := libRequests(ctx, env, actor, trainConstraint, sz.trainN, sz.trainReqs, procs(), opt.seed, &nextID, tr)
		genWall, genCPU := time.Since(genStart), cpuTime()-cpu0
		p.roundTTS = append(p.roundTTS, (trainWall + genWall).Seconds())
		p.addRound(ops, genWall, genCPU, traced)
		p.noteLibraryRound(tr, traced, mark, env, append(gen, trainer))
		return nil
	})
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()

	k, err := newChecker("tpch", sz)
	if err != nil {
		return nil, err
	}
	out := checkLibrary(ctx, opt, k, p, actor, checksums)
	// The method must beat uniform sampling on its own constraint.
	random, err := baselines.NewRandom(k.ds.Env, trainConstraint, opt.seed).GenerateContext(ctx, sz.randomEpis)
	if err != nil {
		return nil, err
	}
	randomAcc := ratio(float64(countSatisfied(random)), float64(len(random)))
	m := p.e2e(setups, peak)
	if !(m["accuracy"] > randomAcc) {
		out.correct = false
		fmt.Fprintf(opt.log, "check: trained accuracy %.4f does not exceed random sampling's %.4f\n", m["accuracy"], randomAcc)
	}
	fmt.Fprintf(opt.log, "train: %d requests, accuracy %.4f, random %.4f, estimator hit rate %.3f, round seconds %.3f\n",
		len(p.ops), m["accuracy"], randomAcc, env.CacheStats().HitRate(), p.roundTTS)

	if tr == nil {
		out.metrics = m
		return out, nil
	}
	return out, finishTraced(ctx, opt, "train", env, actor, trainConstraint, p, tr, out)
}

func countSatisfied(gs []rl.Generated) int {
	n := 0
	for _, g := range gs {
		if g.Satisfied {
			n++
		}
	}
	return n
}
