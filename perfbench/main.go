// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload through the program's packages for a fixed number of
// seconds, checks every query it delivered against computations made apart
// from the run, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, derived from spans the benchmark records
// around its own calls into each layer. README.md in this directory
// describes the workloads, the metrics and their spread.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// e2eMetrics and layerMetrics name every metric the benchmark prints, with
// its unit. They must match BENCHMARK.json at the repository root; the
// package tests compare them.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"time_to_satisfied_s", "s"},
	{"satisfied_per_s", "1/s"},
	{"accuracy", "ratio"},
	{"first_row_p50_ms", "ms"},
	{"first_row_p95_ms", "ms"},
	{"cpu_ms_per_satisfied", "ms"},
}

var layerMetrics = []metricDef{
	{"rl.rollout_s", "s"},
	{"rl.update_s", "s"},
	{"rl.episodes_per_s", "1/s"},
	{"rl.steps_per_episode", "count"},
	{"rl.prefix_hit_rate", "ratio"},
	{"rl.quarantined", "count"},
	{"nn.infer_step_ns", "ns"},
	{"nn.train_step_ns", "ns"},
	{"nn.backward_ns_per_episode", "ns"},
	{"nn.adam_ns", "ns"},
	{"fsm.valid_ns", "ns"},
	{"fsm.apply_ns", "ns"},
	{"fsm.snapshot_ns", "ns"},
	{"sqlast.render_ns", "ns"},
	{"estimator.calls", "count"},
	{"estimator.hit_rate", "ratio"},
	{"estimator.miss_ns", "ns"},
	{"meta.pretrain_s", "s"},
	{"service.acquire_ns", "ns"},
	{"service.overhead_ms", "ms"},
	{"service.registry_hits", "count"},
	{"service.registry_trains", "count"},
	{"service.refusals", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_row", "bytes"},
	{"runtime.alloc_bytes_per_episode", "bytes"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last standard-output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options is one run's configuration.
type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	size     size
	log      io.Writer // progress and check details, one line each
}

// workloads maps --workload names to the functions that run them. Each
// returns the raw values of every metric of the selected set, keyed by
// name.
var workloads = map[string]func(context.Context, options) (*outcome, error){
	"train":    runTrain,
	"generate": runGenerate,
	"serve":    runServe,
}

// outcome is what a workload run hands back: operation counts, the
// verdict of the whole-run checks, and the metric values.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: train, generate or serve")
	seed := fs.Int64("seed", 1, "workload seed: request seeds and session seeds derive from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds (whole rounds)")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	small := fs.Bool("small", false, "reduced sizes, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want train, generate or serve)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	opt := options{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		traceDir: *traceDir,
		size:     fullSize,
		log:      stderr,
	}
	if *small {
		opt.size = smallSize
	}
	printHeader(stdout, *workload, opt)
	steal0 := readCPUStat()
	out, err := drive(context.Background(), opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	// Time the hypervisor did not give the machine moves every wall-clock
	// figure; this line tells a disturbed run from a regression.
	if steal1 := readCPUStat(); steal1.total > steal0.total {
		fmt.Fprintf(stderr, "host: %.1f%% of CPU time stolen by the hypervisor during the run\n",
			100*float64(steal1.steal-steal0.steal)/float64(steal1.total-steal0.total))
	}
	res, err := buildResult(out, opt.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// buildResult attaches units to the workload's values and insists that every
// metric of the selected set is present, so a run never prints a partial
// result.
func buildResult(out *outcome, trace bool) (*result, error) {
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	res := &result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

// printHeader prints the host and build stamp next to the metrics.
func printHeader(w io.Writer, workload string, opt options) {
	h := map[string]any{
		"workload":   workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds.Seconds(),
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_sha":    gitSHA(),
	}
	line, _ := json.Marshal(map[string]any{"header": h})
	fmt.Fprintln(w, string(line))
}

// cpuStat is the aggregate line of /proc/stat: steal and total ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads /proc/stat; it returns zeros where that is missing.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		// user nice system idle iowait irq softirq steal, then guest
		// time, which user and nice already include.
		if i < 8 {
			st.total += n
		}
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the revision the go tool stamped into the binary; a build
// outside a git work tree has none.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}
