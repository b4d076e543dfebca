// Command perfbench is the repository's job-level benchmark. It runs
// one workload as whole jobs through the public entry points —
// sbgp.Simulation.EvaluateJob, the service.Server HTTP handler, and the
// daemon's distributed mode with two in-process dist.Workers — checks
// every result's bytes against an independently computed reference,
// and prints one JSON result line:
//
//	perfbench --workload paper-grid --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing each
// layer's public calls from this package (see probes.go) and by spans
// written to .bench_build/perfbench/. --tiny shrinks every input so a
// smoke test can run all workloads in seconds. Workloads, metric
// definitions and the rationale for both live in BENCHMARK.json at the
// repository root; run.py builds and runs this program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	// workers is nproc: GOMAXPROCS and every job's worker count.
	workers int
	// workDir holds the run's data directories and checkpoints; it is
	// removed when the run ends.
	workDir string
	// rng derives every generated input from the seed.
	rng *rand.Rand
}

// size scales an input size down in tiny mode.
func (c *config) size(full, tiny int) int {
	if c.tiny {
		return tiny
	}
	return full
}

// topoSeed draws a topology seed for a generated input.
func (c *config) topoSeed() int64 { return 1 + c.rng.Int63n(1<<31) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: correctness, job counts, and metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one checked job; ok=false marks it failed.
func (r *report) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// provenance identifies where and how a result was measured, so
// numbers from different machines or settings are never mixed up.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Tiny       bool    `json:"tiny"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	SourceHash string  `json:"source_sha256"`
}

func newProvenance(c *config) provenance {
	// run.py passes the commit and the source digest; a binary run
	// directly reports them as unknown.
	env := func(key string) string {
		if v := os.Getenv(key); v != "" {
			return v
		}
		return "unknown"
	}
	commit, src := env("PERFBENCH_COMMIT"), env("PERFBENCH_SOURCE_SHA256")
	return provenance{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Tiny: c.tiny,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: commit, SourceHash: src,
	}
}

// workloads maps each workload name to its runner. daemon-jobs is not
// in BENCHMARK.json — its figures swung too far between runs on the
// machine the benchmark was written on (see README.md) — but stays
// runnable by hand; its traced-run probes are the same code either way.
var workloads = map[string]func(*config, *report, *tracer) error{
	"paper-grid":   runPaperGrid,
	"rollout-fine": runRolloutFine,
	"daemon-jobs":  func(c *config, r *report, tr *tracer) error { return runDaemon(c, r, tr, false) },
	"dist-jobs":    func(c *config, r *report, tr *tracer) error { return runDaemon(c, r, tr, true) },
}

func main() {
	workload := flag.String("workload", "", "workload: paper-grid, rollout-fine, daemon-jobs or dist-jobs")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	secs := flag.Float64("seconds", 15, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	tiny := flag.Bool("tiny", false, "shrink every input (smoke test)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	workDir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	c := &config{
		workload: *workload, seed: *seed, seconds: *secs, trace: *traceFlag == 1, tiny: *tiny,
		workers: nproc, workDir: workDir, rng: rand.New(rand.NewSource(*seed)),
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	rep := &report{Metrics: map[string]metric{}}
	err = run(c, rep, tr)
	os.RemoveAll(workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov := newProvenance(c)
	if tr != nil {
		path := filepath.Join(base, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
		if err := tr.write(path, prov); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	out := json.NewEncoder(os.Stdout)
	out.Encode(map[string]provenance{"provenance": prov})
	out.Encode(rep)
}

// logf prints progress to stderr; stdout carries only results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
