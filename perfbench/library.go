package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"learnedsqlgen/internal/nn"
	"learnedsqlgen/internal/rl"
)

// The train and generate workloads call the library directly; this file
// holds what they share.

// libRequest runs o through the library: a sampler of its own, seeded by
// o.seed exactly as the service seeds a stream, streams o.n satisfied
// queries from the frozen actor (Trainer.GenerateSatisfiedStreamContext is
// this call on a trainer's own actor). Each sampled batch becomes an
// rl.rollout span, bounded by the progress callback StreamSatisfied makes
// after every batch.
func libRequest(ctx context.Context, env *rl.Env, actor *nn.SeqNet, o *op, tr *tracer) *rl.Trainer {
	s := rl.NewSampler(env, o.c, rlConfig(o.seed))
	reqID, batchID := tr.newID(), tr.newID()
	ctx, sc := tr.scoped(ctx, o.id, batchID)
	start := time.Now()
	batchStart := start
	_, attempts, err := s.StreamSatisfied(ctx, actor, o.n, maxAttempts,
		func(g rl.Generated) error {
			if len(o.rows) == 0 {
				o.firstRow = time.Since(start)
			}
			o.rows = append(o.rows, row{SQL: g.SQL, Measured: g.Measured})
			return nil
		},
		func(int, int) error {
			if tr != nil {
				now := time.Now()
				tr.record(batchID, reqID, o.id, "rl.rollout", batchStart, now)
				batchID, batchStart = tr.newID(), now
				sc.set(batchID)
			}
			return nil
		})
	end := time.Now()
	o.total, o.attempts, o.err = end.Sub(start), attempts, err
	tr.record(reqID, 0, o.id, "rl.request", start, end)
	return s
}

// trainFixed trains epochs × episodes with no early stop. It calls
// TrainEpochContext once per batch — the same batches, in the same order,
// as one call per epoch — so a traced run can split each batch into its
// rollout (TrainStats.RolloutSeconds, time inside SampleBatchContext) and
// its update (BPTT and Adam), which is the rest of the batch.
func trainFixed(ctx context.Context, t *rl.Trainer, epochs, episodes int, tr *tracer) error {
	bs := t.Cfg.BatchSize
	for e := 0; e < epochs; e++ {
		for done := 0; done < episodes; done += bs {
			batchID, rollID := tr.newID(), tr.newID()
			bctx, _ := tr.scoped(ctx, 0, rollID)
			var before float64
			if tr != nil {
				before = t.Stats().RolloutSeconds
			}
			start := time.Now()
			if _, err := t.TrainEpochContext(bctx, min(bs, episodes-done)); err != nil {
				return err
			}
			end := time.Now()
			if tr != nil {
				roll := time.Duration((t.Stats().RolloutSeconds - before) * float64(time.Second))
				tr.record(rollID, batchID, 0, "rl.rollout", start, start.Add(roll))
				tr.record(batchID, 0, 0, "rl.train_batch", start, end)
			}
		}
	}
	return nil
}

// libRequests sends count requests for n satisfied queries under c and
// returns them with the samplers that served them. Request id k is seeded
// rl.FanSeed(workload seed, k), so what a request delivers does not depend
// on which of the callers — each a closed loop taking the next request
// when its last one ends — happened to serve it.
func libRequests(ctx context.Context, env *rl.Env, actor *nn.SeqNet, c rl.Constraint, n, count, callers int, seed int64, nextID *uint64, tr *tracer) ([]*op, []*rl.Trainer) {
	ops := make([]*op, count)
	samplers := make([]*rl.Trainer, count)
	for i := range ops {
		*nextID++
		ops[i] = &op{id: *nextID, seed: rl.FanSeed(seed, *nextID), c: c, n: n}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < count; i = int(next.Add(1) - 1) {
				samplers[i] = libRequest(ctx, env, actor, ops[i], tr)
			}
		}()
	}
	wg.Wait()
	return ops, samplers
}

// checkLibrary runs the checks the library workloads share: every
// operation against the checker, the same weights from every repetition of
// the same training, and a same-seed replay of the last request.
func checkLibrary(ctx context.Context, opt options, k *checker, p *phase, actor *nn.SeqNet, checksums []uint32) *outcome {
	out := &outcome{attempted: len(p.ops), correct: true}
	var err error
	if out.failed, err = k.failures(p.ops); err != nil {
		fmt.Fprintf(opt.log, "check: %v\n", err)
	}
	for _, c := range checksums[1:] {
		if c != checksums[0] {
			out.correct = false
			fmt.Fprintf(opt.log, "check: identical training gave different weights (checksums %x)\n", checksums)
			break
		}
	}
	if err := k.replay(ctx, actor, p.ops[len(p.ops)-1]); err != nil {
		out.correct = false
		fmt.Fprintf(opt.log, "check: %v\n", err)
	}
	return out
}

// finishTraced completes a traced run: the per-layer replays, the metrics
// derived from all spans, and the span file.
func finishTraced(ctx context.Context, opt options, workload string, env *rl.Env, actor *nn.SeqNet, c rl.Constraint, p *phase, tr *tracer, out *outcome) error {
	out.metrics = map[string]float64{}
	if err := layerReplay(ctx, env, actor, c, opt.seed, opt.size, p.ops, tr, out.metrics); err != nil {
		return err
	}
	layerValues(p, tr.snapshot(), out.metrics)
	path, err := tr.write(opt.traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, opt.seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(opt.log, "trace: spans in %s\n", path)
	return nil
}
