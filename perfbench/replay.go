package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"learnedsqlgen/internal/nn"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/wire"
)

// The layers below the rollout loop — the FSM mask, the LSTM step, BPTT,
// Adam, the SQL render that keys the estimator cache, and the wire frames —
// are timed by replaying a traced run's recorded work through each layer
// alone, call by call, after the measured phase. Every call is one span.

// sampleTraces rolls out n inference episodes of the final actor on a
// fresh sampler and returns them; their steps hold the token trace (action
// and valid set per step) the replays walk.
func sampleTraces(ctx context.Context, env *rl.Env, actor *nn.SeqNet, c rl.Constraint, seed int64, n int) ([]*rl.Trajectory, error) {
	s := rl.NewSampler(env, c, rlConfig(seed))
	return s.SampleBatchContext(ctx, actor, actor.BOS(), n, false, false)
}

// stepsPerEpisode is the mean token-trace length.
func stepsPerEpisode(trajs []*rl.Trajectory) float64 {
	n := 0
	for _, t := range trajs {
		n += len(t.Steps)
	}
	return ratio(float64(n), float64(len(trajs)))
}

// replayFSM walks every trace through a fresh FSM: Valid, Apply
// and Snapshot per step, plus Statement.SQL on each executable prefix —
// the text the estimator cache is keyed on.
func replayFSM(env *rl.Env, trajs []*rl.Trajectory, tr *tracer) error {
	for _, t := range trajs {
		ep := tr.newID()
		b := env.NewBuilder()
		epStart := time.Now()
		for i, s := range t.Steps {
			t0 := time.Now()
			valid := b.Valid()
			t1 := time.Now()
			err := b.Apply(s.Action)
			t2 := time.Now()
			st, ok := b.Snapshot()
			t3 := time.Now()
			if ok {
				_ = st.SQL()
			}
			t4 := time.Now()
			if err != nil {
				return fmt.Errorf("fsm replay step %d: %w", i, err)
			}
			if len(valid) != len(s.Valid) {
				return fmt.Errorf("fsm replay step %d: %d valid tokens, rollout saw %d", i, len(valid), len(s.Valid))
			}
			tr.record(tr.newID(), ep, 0, "fsm.valid", t0, t1)
			tr.record(tr.newID(), ep, 0, "fsm.apply", t1, t2)
			tr.record(tr.newID(), ep, 0, "fsm.snapshot", t2, t3)
			if ok {
				tr.record(tr.newID(), ep, 0, "sqlast.render", t3, t4)
			}
		}
		tr.record(ep, 0, 0, "replay.fsm_episode", epStart, time.Now())
	}
	return nil
}

// replayNN feeds every trace through the actor: once as inference steps
// on the final weights, once as training steps on a copy, followed by the
// episode's BPTT and one Adam step, as an actor update does per batch.
func replayNN(actor *nn.SeqNet, trajs []*rl.Trajectory, seed int64, tr *tracer) {
	ws := nn.NewWorkspace(nn.NewCachePool())
	pool := ws.Pool()
	for _, t := range trajs {
		st := pool.GetState(actor.Hidden)
		in := actor.BOS()
		for _, s := range t.Steps {
			t0 := time.Now()
			actor.StepMaskedInto(ws, st, in, s.Valid, false, nil)
			tr.record(tr.newID(), 0, 0, "nn.infer_step", t0, time.Now())
			in = s.Action
		}
		ws.Recycle(st)
	}

	rng := rand.New(rand.NewSource(seed))
	clone := nn.NewSeqNet("replay", actor.VocabSize, actor.EmbedDim, actor.Hidden, actor.OutDim, actor.DropRate, rng)
	clone.CopyWeightsFrom(actor)
	cfg := rl.FastConfig()
	opt := nn.NewAdam(cfg.ActorLR)
	probs := make([]float64, actor.OutDim)
	for _, t := range trajs {
		st := pool.GetState(clone.Hidden)
		in := clone.BOS()
		dHead := make([][]float64, len(t.Steps))
		for i, s := range t.Steps {
			t0 := time.Now()
			logits := clone.StepMaskedInto(ws, st, in, s.Valid, true, rng)
			tr.record(tr.newID(), 0, 0, "nn.train_step", t0, time.Now())
			nn.MaskedSoftmaxInto(logits, s.Valid, probs)
			dHead[i] = pool.GetVec(clone.OutDim)
			nn.PolicyGradLogits(probs, s.Valid, s.Action, 1/float64(len(t.Steps)), cfg.EntropyWeight, dHead[i])
			in = s.Action
		}
		t0 := time.Now()
		clone.BackwardInto(ws, st, dHead)
		t1 := time.Now()
		opt.Step(clone.Params())
		t2 := time.Now()
		tr.record(tr.newID(), 0, 0, "nn.backward", t0, t1)
		tr.record(tr.newID(), 0, 0, "nn.adam", t1, t2)
		for _, d := range dHead {
			pool.PutVec(d)
		}
		ws.Recycle(st)
	}
}

// replayWire frames every delivered row as the server's Row message, then
// decodes the frames through one reusable wire.Reader, as the client's
// demux loop does. It returns the framed bytes per row.
func replayWire(ops []*op, tr *tracer) (float64, error) {
	var buf bytes.Buffer
	rows := 0
	for _, o := range ops {
		for _, r := range o.rows {
			m := &wire.Row{ID: o.id, SQL: r.SQL, Measured: r.Measured, Satisfied: true}
			t0 := time.Now()
			err := wire.WriteMessage(&buf, m)
			tr.record(tr.newID(), 0, o.id, "wire.encode", t0, time.Now())
			if err != nil {
				return 0, err
			}
			rows++
		}
	}
	perRow := ratio(float64(buf.Len()), float64(rows))
	rd := wire.NewReader(&buf, 0)
	for i := 0; i < rows; i++ {
		t0 := time.Now()
		m, err := rd.ReadMessage()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("wire replay: %w", err)
		}
		if r, ok := m.(*wire.Row); ok {
			tr.record(tr.newID(), 0, r.ID, "wire.decode", t0, t1)
		}
	}
	return perRow, nil
}

// layerReplay runs every replay and adds their metrics to m.
func layerReplay(ctx context.Context, env *rl.Env, actor *nn.SeqNet, c rl.Constraint, seed int64, sz size, ops []*op, tr *tracer, m map[string]float64) error {
	trajs, err := sampleTraces(ctx, env, actor, c, rl.FanSeed(seed, 1<<40), sz.replayEpis)
	if err != nil {
		return err
	}
	tr.setRecording(true)
	defer tr.setRecording(false)
	if err := replayFSM(env, trajs, tr); err != nil {
		return err
	}
	replayNN(actor, trajs, seed, tr)
	perRow, err := replayWire(ops, tr)
	if err != nil {
		return err
	}
	m["rl.steps_per_episode"] = stepsPerEpisode(trajs)
	m["wire.bytes_per_row"] = perRow
	return nil
}
