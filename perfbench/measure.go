package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"learnedsqlgen/internal/rl"
)

// size fixes the make-up of every workload. fullSize is the benchmark;
// smallSize shrinks vocabularies and budgets so the package tests can run
// each workload end to end in seconds. Its train budget is the smallest
// that still beats random sampling clearly on the train constraint.
type size struct {
	scale       float64 // dataset scale of all three workloads
	sampleK     int     // sampled values per column in the vocabulary (k)
	setupReps   int     // set-ups per run; setup_s is their median
	trainEp     int     // train: epochs per round
	trainEpis   int     // train: episodes per epoch
	trainReqs   int     // train: generation requests per round
	trainN      int     // train: satisfied queries per request
	randomEpis  int     // train: random-baseline episodes for the accuracy check
	genEp       int     // generate: set-up training epochs
	genEpis     int     // generate: set-up training episodes per epoch
	genReqs     int     // generate: requests per round
	genN        int     // generate: satisfied queries per request
	conns       int     // serve: connections (capped at nproc)
	inFlight    int     // serve: streams in flight per connection
	serveReqs   int     // serve: requests per connection per round
	serveN      int     // serve: satisfied queries per request
	warmRounds  int     // serve: registry pre-training rounds per domain
	warmEpis    int     // serve: registry pre-training episodes per task
	sampleEvery int     // serve: every k-th request is replayed through the library
	replayEpis  int     // traced runs: episodes whose token traces are replayed
	probeReqs   int     // traced serve runs: sequential requests timed for service.overhead_ms
}

var fullSize = size{
	scale: 1, sampleK: 50, setupReps: 3,
	trainEp: 8, trainEpis: 128, trainReqs: 128, trainN: 2, randomEpis: 1000,
	genEp: 6, genEpis: 128, genReqs: 32, genN: 8,
	conns: 2, inFlight: 4, serveReqs: 32, serveN: 4, warmRounds: 3, warmEpis: 24, sampleEvery: 16,
	replayEpis: 128, probeReqs: 24,
}

var smallSize = size{
	scale: 1, sampleK: 10, setupReps: 2,
	trainEp: 4, trainEpis: 64, trainReqs: 16, trainN: 1, randomEpis: 500,
	genEp: 1, genEpis: 16, genReqs: 4, genN: 1,
	conns: 2, inFlight: 2, serveReqs: 4, serveN: 1, warmRounds: 1, warmEpis: 4, sampleEvery: 3,
	replayEpis: 8, probeReqs: 2,
}

// maxAttempts caps every request's episodes far above what any request
// needs, so requests end by delivering n rows, never by giving up.
const maxAttempts = 1 << 20

// trainSeed seeds every network the benchmark trains (the library default),
// so each run trains the same weights and the workload seed varies only the
// generation requests. Which seed converges how far is a property of the
// method, not of the code under measurement; fixing it keeps the training
// work identical across runs.
const trainSeed = 1

// dataSeed generates the datasets and their vocabularies.
const dataSeed = 1

// procs is the load's parallelism: training rollout workers, library
// callers and service connections. Work on both processors of a small
// host keeps a stretch of time stolen from one of them from stalling the
// measured path: with one serial caller, ten consecutive generate runs
// spread 0.26 in time_to_satisfied_s and 0.50 in first_row_p95_ms.
func procs() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// rlConfig is the library's configuration with the given seed and serial
// rollouts, as the service runs each request.
func rlConfig(seed int64) rl.Config {
	cfg := rl.FastConfig()
	cfg.Seed = seed
	return cfg
}

// trainConfig is the configuration of every network the benchmark trains:
// seed trainSeed, rollouts on procs() workers. The trained weights do not
// depend on the worker count.
func trainConfig() rl.Config {
	cfg := rlConfig(trainSeed)
	cfg.Workers = procs()
	return cfg
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a snapshot of the Go runtime counters behind the
// runtime.* layer metrics.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	gcCycles   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCPU: v(1), gcCycles: v(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.gcCycles - b.gcCycles}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.gcCycles + b.gcCycles}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
