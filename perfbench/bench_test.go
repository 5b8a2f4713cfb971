package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"learnedsqlgen/internal/baselines"
)

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmall runs one workload at reduced size and decodes its result line.
func runSmall(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
		"--small", "--trace-dir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", workload, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
		for _, trace := range []string{"0", "1"} {
			res := runSmall(t, w.Name, trace)
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: missing %s", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%s: %s in %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
		}
	}
}

func TestCheckerFlagsRowOutsideConstraint(t *testing.T) {
	k, err := newChecker("tpch", smallSize)
	if err != nil {
		t.Fatal(err)
	}
	// A genuine query whose true estimate misses the constraint, reported
	// with its true value, must fail on the range; reported with a value
	// inside the range, it must fail on the re-estimate.
	gen := baselines.NewRandom(k.ds.Env, trainConstraint, 1).Generate(200)
	for _, g := range gen {
		if g.Satisfied {
			continue
		}
		o := &op{id: 1, c: trainConstraint, n: 1, rows: []row{{SQL: g.SQL, Measured: g.Measured}}}
		if err := k.checkOp(o); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("row measuring %v passed as inside %v: %v", g.Measured, trainConstraint, err)
		}
		o.rows[0].Measured = 200
		if err := k.checkOp(o); err == nil || !strings.Contains(err.Error(), "re-estimates") {
			t.Fatalf("row reported at 200 but measuring %v passed: %v", g.Measured, err)
		}
		o.rows = nil
		if err := k.checkOp(o); err == nil {
			t.Fatal("request with no rows passed")
		}
		return
	}
	t.Fatal("random sampling produced no unsatisfied query to fabricate from")
}

func TestCheckerFlagsServedStreamDifferentFromLibrary(t *testing.T) {
	ctx := context.Background()
	opt := options{seed: 3, size: smallSize}
	r, err := startRig(ctx, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.stop(); err != nil {
			t.Error(err)
		}
	}()
	k, err := newChecker(serveDataset, smallSize)
	if err != nil {
		t.Fatal(err)
	}
	ops := driveConn(ctx, r.conns[0], 0, opt.seed, 0, smallSize, nil)
	for _, o := range ops {
		if err := k.replayServed(ctx, r, o); err != nil {
			t.Fatalf("untouched stream: %v", err)
		}
	}
	// The same rows claimed under another request id, as a stream would
	// look if the client's ids and the benchmark's disagreed.
	moved := *ops[0]
	moved.id, moved.seed = ops[1].id, ops[1].seed
	if err := k.replayServed(ctx, r, &moved); err == nil {
		t.Fatal("stream replayed under another request id matched the library")
	}
	edited := *ops[0]
	edited.rows = append([]row(nil), ops[0].rows...)
	edited.rows[0].SQL += " "
	if err := k.replayServed(ctx, r, &edited); err == nil {
		t.Fatal("stream with an edited row matched the library")
	}
}
