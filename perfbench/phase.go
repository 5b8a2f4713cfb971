package main

import (
	"time"

	"learnedsqlgen/internal/rl"
)

// op is one operation: a generation request asking for n satisfied
// queries, and everything it delivered.
type op struct {
	id   uint64
	seed int64 // the stream's sampler seed, rl.FanSeed(workload or session seed, id)
	conn int   // serve: the connection that carried it
	c    rl.Constraint
	n    int

	rows     []row
	attempts int
	err      error
	firstRow time.Duration // request sent to first row in hand
	total    time.Duration // request sent to last frame
}

// row is one delivered query as the caller received it.
type row struct {
	SQL      string
	Measured float64
}

// rolloutStats sums the rl counters of the samplers and trainers a traced
// round used.
type rolloutStats struct {
	episodes     uint64
	prefixHits   uint64
	prefixMisses uint64
	quarantined  uint64
	estCalls     uint64
	estHits      uint64
	estMisses    uint64
}

func (a *rolloutStats) addTrainer(s rl.TrainStats, quarantined uint64) {
	a.episodes += s.Episodes
	a.prefixHits += s.PrefixHits
	a.prefixMisses += s.PrefixMisses
	a.quarantined += quarantined
}

// phase accumulates the measured phase of a run.
type phase struct {
	ops       []*op
	roundEnds []int // len(ops) after each round
	// Per round: seconds until its N-th satisfied query, and the
	// generation part's satisfied queries per second and process CPU
	// milliseconds per satisfied query. Medians over rounds damp the
	// host's slow stretches, which last seconds.
	roundTTS, roundRate, roundCPU []float64

	// Traced runs interleave rounds: untraced rounds give the runtime
	// counters and the baseline of trace.overhead_pct, traced rounds the
	// spans and rl counters.
	plainWall, tracedWall time.Duration
	plainSat, tracedSat   int
	plainEpisodes         uint64
	runtime               runtimeSample
	rl                    rolloutStats
}

// rounds runs whole rounds until the measured phase has lasted opt.seconds.
// A traced run records spans in odd rounds only and runs at least one round
// of each kind.
func rounds(opt options, tr *tracer, body func(round int, traced bool) error) error {
	start := time.Now()
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	for r := 0; r < minRounds || time.Since(start) < opt.seconds; r++ {
		traced := tr != nil && r%2 == 1
		tr.setRecording(traced)
		if err := body(r, traced); err != nil {
			tr.setRecording(false)
			return err
		}
	}
	tr.setRecording(false)
	return nil
}

// addRound files one round's requests with the wall and CPU time of the
// round's generation part.
func (p *phase) addRound(ops []*op, wall, cpu time.Duration, traced bool) {
	p.ops = append(p.ops, ops...)
	p.roundEnds = append(p.roundEnds, len(p.ops))
	sat := satisfiedOf(ops)
	p.roundRate = append(p.roundRate, ratio(float64(sat), wall.Seconds()))
	p.roundCPU = append(p.roundCPU, ratio(ms(cpu), float64(sat)))
	if traced {
		p.tracedWall += wall
		p.tracedSat += sat
	} else {
		p.plainWall += wall
		p.plainSat += sat
	}
}

func satisfiedOf(ops []*op) int {
	n := 0
	for _, o := range ops {
		n += len(o.rows)
	}
	return n
}

// e2e computes the end-to-end metrics every workload shares.
func (p *phase) e2e(setups []float64, peakRSS float64) map[string]float64 {
	sat, attempts := 0, 0
	for _, o := range p.ops {
		sat += len(o.rows)
		attempts += o.attempts
	}
	p50, p95 := p.firstRowPercentiles()
	return map[string]float64{
		"setup_s":              median(setups),
		"peak_rss_mb":          peakRSS,
		"time_to_satisfied_s":  median(p.roundTTS),
		"satisfied_per_s":      median(p.roundRate),
		"accuracy":             ratio(float64(sat), float64(attempts)),
		"first_row_p50_ms":     p50,
		"first_row_p95_ms":     p95,
		"cpu_ms_per_satisfied": median(p.roundCPU),
	}
}

// percentileWindow is the fewest requests a first-row percentile is taken
// over: at least ten samples lie beyond the 95th percentile of 200.
const percentileWindow = 200

// firstRowPercentiles splits the run into windows of whole rounds holding
// at least percentileWindow requests each (a short remainder joins the
// last window), takes the median and 95th percentile of first-row latency
// in each, and returns the medians over windows. A run shorter than one
// window is one window. Like the per-round medians, this keeps a slow
// stretch of the host within part of a run from setting the run's tail.
func (p *phase) firstRowPercentiles() (p50, p95 float64) {
	var windows [][]float64
	var cur []float64
	start := 0
	for _, end := range p.roundEnds {
		for _, o := range p.ops[start:end] {
			if len(o.rows) > 0 {
				cur = append(cur, ms(o.firstRow))
			}
		}
		start = end
		if len(cur) >= percentileWindow {
			windows, cur = append(windows, cur), nil
		}
	}
	switch {
	case len(windows) == 0:
		windows = [][]float64{cur}
	case len(cur) > 0:
		windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	}
	var w50, w95 []float64
	for _, w := range windows {
		w50 = append(w50, quantile(w, 0.50))
		w95 = append(w95, quantile(w, 0.95))
	}
	return median(w50), median(w95)
}

// overheadPct is trace.overhead_pct: how much slower, in satisfied queries
// per second, traced rounds ran than the untraced rounds between them.
func (p *phase) overheadPct() float64 {
	plain := ratio(float64(p.plainSat), p.plainWall.Seconds())
	traced := ratio(float64(p.tracedSat), p.tracedWall.Seconds())
	return 100 * ratio(plain-traced, plain)
}
