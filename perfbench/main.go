// Command perfbench is the repository benchmark. One run executes one
// named workload at one seed and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.md beside this file for the rationale):
//
//	train   one EHNA epoch on the datagen Digg analogue, in-process
//	search  ehnad serving prebuilt mmap+sq8 artifacts, read-only, open loop
//	ingest  ehnad with WAL and fsync=always, mixed reads and writes, open loop
//
// With --trace 0 the metrics are the end-to-end set (endToEnd below);
// with --trace 1 the run also probes each layer, reports the per-layer
// set (perLayer) and writes its spans to .bench_build/traces/. A run
// whose outputs fail a correctness check prints correct=false and
// exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit string
}

// endToEnd is the metric set of every --trace 0 run. Every workload
// reports every one of them; the per-workload meaning is in BENCHMARK.md.
// Wall-clock throughput and latency are per-layer metrics: on a host
// whose hypervisor steals CPU time they spread too far to be gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is what every workload gets: its flags plus the places it may
// write, all inside the checkout.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the ehnad and ehnad-mkstore builds
	work     string // scratch directory of this run, removed at exit
	traceDir string
	conns    int // client connections and load threads: nproc
	tr       *tracer
}

// outcome is what a workload hands back: values by metric name, the
// request accounting and the correctness verdict.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed correctness checks; empty means correct
	notes     map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(e *env) (*outcome, error){
	"train":  runTrain,
	"search": runSearch,
	"ingest": runIngest,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: train, search or ingest")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "measurement budget of the run in seconds")
		trace    = flag.Int("trace", 0, "1 also runs the per-layer probes with spans and reports the per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory with the ehnad and ehnad-mkstore binaries")
		work     = flag.String("work", ".bench_build/run", "scratch directory root")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload train|search|ingest, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, work: dir, traceDir: filepath.Join(filepath.Dir(*bin), "traces"),
		conns: runtime.NumCPU(), tr: newTracer(*trace == 1),
	}
	rec := newRunRecord(e)
	out, err := run(e)
	os.RemoveAll(dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
		fillIdle(*workload, out)
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			fatal(fmt.Errorf("%s: metric %s was not measured", *workload, d.Name))
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if e.trace {
		path, err := e.tr.write(e.traceDir, fmt.Sprintf("%s-%d", *workload, *seed), rec)
		if err != nil {
			fatal(err)
		}
		out.notes["spans_file"] = path
	}
	printReport(rec, out)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printReport writes the human-readable part of the output: the run
// record and every value the workload measured, sorted by name.
func printReport(rec runRecord, out *outcome) {
	b, _ := json.Marshal(rec)
	fmt.Printf("run %s\n", b)
	names := make([]string, 0, len(out.values))
	for n := range out.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %.6g\n", n, out.values[n])
	}
	if len(out.notes) > 0 {
		b, _ := json.Marshal(out.notes)
		fmt.Printf("notes %s\n", b)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// budget returns a share of the run's measurement time.
func (e *env) budget(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}
