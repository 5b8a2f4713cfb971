package main

import (
	"context"
	"fmt"
	"math"

	"learnedsqlgen/internal/estimator"
	"learnedsqlgen/internal/nn"
	"learnedsqlgen/internal/parser"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/service"
	"learnedsqlgen/internal/stats"
)

// checker verifies delivered queries against a world built apart from the
// run: the dataset generated again from its seed, an estimator over it
// with no cache, and an environment of its own for replays. Nothing it
// compares against is a stored copy of an earlier run's output.
type checker struct {
	ds  *service.Dataset
	est *estimator.Estimator
}

func newChecker(dataset string, sz size) (*checker, error) {
	ds, err := service.OpenDataset(dataset, sz.scale, sz.sampleK, dataSeed)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	db := ds.Env.DB
	return &checker{ds: ds, est: estimator.New(db.Schema, stats.Collect(db))}, nil
}

// checkOp reports why an operation failed, or nil: it returned an error,
// delivered other than exactly n rows, or delivered a row that does not
// re-parse, re-estimate to its reported value, or land in the constraint.
func (k *checker) checkOp(o *op) error {
	if o.err != nil {
		return o.err
	}
	if len(o.rows) != o.n {
		return fmt.Errorf("request %d delivered %d rows, want %d", o.id, len(o.rows), o.n)
	}
	for _, r := range o.rows {
		if err := k.checkRow(o.c, r); err != nil {
			return fmt.Errorf("request %d: %w", o.id, err)
		}
	}
	return nil
}

func (k *checker) checkRow(c rl.Constraint, r row) error {
	st, err := parser.Parse(r.SQL)
	if err != nil {
		return fmt.Errorf("re-parse %q: %w", r.SQL, err)
	}
	est, err := k.est.Estimate(st)
	if err != nil {
		return fmt.Errorf("re-estimate %q: %w", r.SQL, err)
	}
	v := est.Card
	if c.Metric == rl.Cost {
		v = est.Cost
	}
	if math.Float64bits(v) != math.Float64bits(r.Measured) {
		return fmt.Errorf("%q re-estimates to %v %s, reported %v", r.SQL, v, c.Metric, r.Measured)
	}
	if !c.IsRange || v < c.Lo || v > c.Hi {
		return fmt.Errorf("%q measures %v %s, outside [%v, %v]", r.SQL, v, c.Metric, c.Lo, c.Hi)
	}
	return nil
}

// failures checks every operation and returns how many failed, with the
// first reason.
func (k *checker) failures(ops []*op) (int, error) {
	n := 0
	var first error
	for _, o := range ops {
		if err := k.checkOp(o); err != nil {
			n++
			if first == nil {
				first = err
			}
		}
	}
	return n, first
}

// replay runs o's request again on a fresh sampler over the checker's
// environment, with the same seed and actor, and reports the
// first difference from what o delivered: rows must match byte for byte
// and so must the episode count.
func (k *checker) replay(ctx context.Context, actor *nn.SeqNet, o *op) error {
	got := &op{id: o.id, seed: o.seed, c: o.c, n: o.n}
	libRequest(ctx, k.ds.Env, actor, got, nil)
	return sameDelivery(o, got)
}

// sameDelivery compares two deliveries of one request.
func sameDelivery(want, got *op) error {
	if got.err != nil {
		return fmt.Errorf("replay of request %d: %w", want.id, got.err)
	}
	if len(got.rows) != len(want.rows) {
		return fmt.Errorf("request %d: replay delivered %d rows, run delivered %d", want.id, len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		w, g := want.rows[i], got.rows[i]
		if w.SQL != g.SQL || math.Float64bits(w.Measured) != math.Float64bits(g.Measured) {
			return fmt.Errorf("request %d row %d: replay %q (%v), run %q (%v)", want.id, i, g.SQL, g.Measured, w.SQL, w.Measured)
		}
	}
	if got.attempts != want.attempts {
		return fmt.Errorf("request %d: replay took %d episodes, run took %d", want.id, got.attempts, want.attempts)
	}
	return nil
}
