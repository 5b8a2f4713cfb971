package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedsqlgen/internal/estimator"
	"learnedsqlgen/internal/sqlast"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one request share Req; Parent is the span whose interval
// caused this one (0 for none). Times are nanoseconds since the tracer
// started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op on it, so untraced code paths pay
// one nil check per call site. Recording can also be paused, which is how a
// traced run interleaves untraced rounds to measure the tracing overhead.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) setRecording(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span when recording is on.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t.recording() {
		t.keep(id, parent, req, name, start, end)
	}
}

// keep stores a finished span even while recording is paused — for spans
// whose inner calls must stay untraced, such as registry pre-training in
// set-up.
func (t *tracer) keep(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// scope carries the request id and the currently open span into calls the
// benchmark does not control — the estimator backend below reads it to
// parent its spans. cur changes at every rollout batch boundary while
// rollout workers read it, hence the atomic.
type scope struct {
	req uint64
	cur atomic.Uint64
}

type scopeKey struct{}

// scoped returns ctx carrying a new scope, or ctx itself when untraced.
func (t *tracer) scoped(ctx context.Context, req, cur uint64) (context.Context, *scope) {
	if t == nil {
		return ctx, nil
	}
	sc := &scope{req: req}
	sc.cur.Store(cur)
	return context.WithValue(ctx, scopeKey{}, sc), sc
}

func (sc *scope) set(cur uint64) {
	if sc != nil {
		sc.cur.Store(cur)
	}
}

// timedBackend sits under the environment's estimator cache
// (rl.Env.SetBackend), so every call it sees is a cache miss. It records
// one estimator.miss span per call.
type timedBackend struct {
	inner estimator.Backend
	tr    *tracer
}

func (b timedBackend) EstimateContext(ctx context.Context, st sqlast.Statement) (estimator.Estimate, error) {
	if !b.tr.recording() {
		return b.inner.EstimateContext(ctx, st)
	}
	start := time.Now()
	est, err := b.inner.EstimateContext(ctx, st)
	end := time.Now()
	var parent, req uint64
	if sc, ok := ctx.Value(scopeKey{}).(*scope); ok {
		parent, req = sc.cur.Load(), sc.req
	}
	b.tr.record(b.tr.newID(), parent, req, "estimator.miss", start, end)
	return est, err
}

// spanStats aggregates spans by name: count, total duration and self time
// (duration minus the part of the span's interval its children cover;
// children that overlap, such as estimator misses on concurrent rollout
// workers, count once).
type spanStats struct {
	count int
	total time.Duration
	self  time.Duration
}

func (s spanStats) mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.total / time.Duration(s.count)
}

func aggregate(spans []span) map[string]spanStats {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		a := out[s.Name]
		a.count++
		a.total += s.dur()
		a.self += s.dur() - covered(s, kids[s.ID])
		out[s.Name] = a
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	total += curE - curS
	return time.Duration(total)
}

// byReq sums the durations of the named spans per request id.
func byReq(spans []span, name string) map[uint64]time.Duration {
	out := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Req] += s.dur()
		}
	}
	return out
}
