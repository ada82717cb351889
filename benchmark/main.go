// Command benchmark is the repo's one benchmark: four workloads over the
// whole capper, end-to-end metrics from a timed run with no benchmark
// code on the measured path, and per-layer metrics from a traced run that
// times every layer from outside. BENCHMARK.json at the repo root declares
// the workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark -workload fleet-100k -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -out results.jsonl          # every workload, both runs
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed     int64
	duration time.Duration
	// toy shrinks every workload to smoke-test size (30 racks, two
	// simulated minutes, one grid column).
	toy bool
	// setups is how many times the timed run sets up, reporting the
	// median; probeCalls caps the calls of each sequential probe.
	setups       int
	probeCalls   int
	traceOut     string
	expectedPath string
}

// workload is one set of inputs: a timed run for the end-to-end metrics
// and a traced run for the per-layer ones.
type workload interface {
	timed(cfg runConfig) (*result, error)
	traced(cfg runConfig) (*result, error)
}

var workloads = map[string]workload{
	"fleet-100k":  cpWorkload{stub: false},
	"tiers-100k":  cpWorkload{stub: true},
	"feedfail-1k": ffWorkload{},
	"capacity-mc": mcWorkload{},
}

// measured is one metric as a run measured it.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result collects what a run measured and what went wrong in it.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]measured
}

func newResult() *result { return &result{metrics: map[string]measured{}} }

func (r *result) set(name string, value float64, samples int) {
	r.metrics[name] = measured{Value: value, Samples: samples}
}

// fail counts one failed operation; err (may be nil) says why.
func (r *result) fail(err error) {
	r.failed++
	if err != nil && len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// opMetrics turns per-operation wall times (ms) into the end-to-end
// latency and throughput metrics: the median, the highest percentile —
// at most the 95th — that still has ten samples beyond it, and
// operations per second of operation time (input changes between
// operations are not counted).
func (r *result) opMetrics(ms []float64) {
	if len(ms) == 0 {
		return
	}
	var total float64
	for _, v := range ms {
		total += v
	}
	tail, _ := tailPercentile(ms, 10, 0.95)
	r.set("op_p50_ms", median(ms), len(ms))
	r.set("op_p95_ms", tail, len(ms))
	r.set("ops_per_s", float64(len(ms))/(total/1e3), len(ms))
}

// medianSetup runs a workload's set-up n times and returns the median
// wall time in seconds; last is true on the run whose product is kept.
func medianSetup(n int, setup func(last bool) error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// timeCalls is a sequential probe: it takes up to maxSamples samples, or
// as many as fit in budget (but at least ten), each the wall time of
// reps back-to-back calls of fn as seen from outside, and returns
// nanoseconds per call. reps above one keeps the clock's own cost out of
// calls that take well under a microsecond. prep, when set, runs untimed
// before every sample.
func timeCalls(budget time.Duration, maxSamples, reps int, prep, fn func()) []float64 {
	ns := make([]float64, 0, maxSamples)
	for start := time.Now(); len(ns) < maxSamples && (len(ns) < 10 || time.Since(start) < budget); {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(t0))/float64(reps))
	}
	return ns
}

// record is one run as -out stores it, one JSON object per line.
type record struct {
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	Seconds    float64             `json:"seconds"`
	Trace      int                 `json:"trace"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Problems   []string            `json:"problems,omitempty"`
	Metrics    map[string]measured `json:"metrics"`
	NProc      int                 `json:"nproc"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	GoVersion  string              `json:"go_version"`
	Commit     string              `json:"commit"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runOne runs one workload in one mode (0 timed, 1 traced) and fills in
// units and not-applicable zeros from the spec.
func runOne(spec *benchSpec, name string, cfg runConfig, trace int) (*record, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var res *result
	var err error
	declared := spec.EndToEnd
	if trace == 0 {
		res, err = w.timed(cfg)
	} else {
		res, err = w.traced(cfg)
		declared = spec.PerLayer
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rec := &record{
		Workload: name, Seed: cfg.seed, Seconds: cfg.duration.Seconds(), Trace: trace,
		Attempted: max(res.attempted, 1), Failed: res.failed, Problems: res.problems,
		Metrics: make(map[string]measured, len(declared)),
		NProc:   runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	for _, d := range declared {
		m, ok := res.metrics[d.Name]
		delete(res.metrics, d.Name)
		if ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, d.Name, m.Value)
		}
		// A per-layer metric the workload does not measure belongs to a
		// layer that does no work in it: it reads 0.
		if !ok && trace == 0 && res.failed == 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.Name)
		}
		m.Unit = d.Unit
		rec.Metrics[d.Name] = m
	}
	for stray := range res.metrics {
		return nil, fmt.Errorf("%s: measured metric %s is not declared in the spec", name, stray)
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// printRecord prints every metric by name with its unit, sample count
// and workload.
func printRecord(rec *record) {
	mode := "timed"
	if rec.Trace == 1 {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d %s run %.0fs: attempted=%d failed=%d correct=%v  (GOMAXPROCS=%d nproc=%d %s commit=%s)\n",
		rec.Workload, rec.Seed, mode, rec.Seconds, rec.Attempted, rec.Failed, rec.Correct,
		rec.GOMAXPROCS, rec.NProc, rec.GoVersion, rec.Commit)
	for _, p := range rec.Problems {
		fmt.Printf("#   problem: %s\n", p)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("%-12s %-46s %16.6g %-8s n=%d\n", rec.Workload, n, m.Value, m.Unit, m.Samples)
	}
}

// lastLine is the contract's result object. With several workloads in
// one invocation the metric names are prefixed with the workload's.
func lastLine(recs []*record, prefix bool) ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, rec := range recs {
		out.Correct = out.Correct && rec.Correct
		out.Attempted += rec.Attempted
		out.Failed += rec.Failed
		for n, m := range rec.Metrics {
			if prefix {
				n = rec.Workload + "/" + n
			}
			out.Metrics[n] = valueUnit{m.Value, m.Unit}
		}
	}
	return json.Marshal(out)
}

func appendRecords(path string, recs []*record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// The benchmark runs from the repo root, where its declaration lives.
const (
	specPath     = "BENCHMARK.json"
	expectedPath = "benchmark/expected.json"
)

func run() error {
	var (
		name     = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: the spec's run_seconds)")
		trace    = flag.Int("trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here as Chrome-trace JSON")
		out      = flag.String("out", "", "append each run's record to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
		update   = flag.Bool("update", false, "rewrite expected.json from capacity-mc sweeps at seeds 1 and 2")
	)
	flag.Parse()
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}

	// GOMAXPROCS is pinned so that runs on larger hosts stay comparable;
	// the environment variable overrides the pin, but never past nproc.
	nproc := runtime.NumCPU()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(nproc, 4))
	}
	if procs := runtime.GOMAXPROCS(0); procs > nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d processors available: timings would measure the scheduler", procs, nproc)
	}

	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{
		seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		setups: 3, probeCalls: 1000, traceOut: *traceOut, expectedPath: expectedPath,
	}
	if *update {
		return updateExpected(cfg, []int64{1, 2})
	}

	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	modes := []int{*trace}
	if *trace < 0 {
		modes = []int{0, 1}
	}
	var recs []*record
	for _, n := range names {
		for _, mode := range modes {
			c := cfg
			if *trace < 0 && mode == 1 {
				c.duration = cfg.duration / 3 // the traced run is the shorter one
			}
			rec, err := runOne(spec, n, c, mode)
			if err != nil {
				return err
			}
			printRecord(rec)
			recs = append(recs, rec)
		}
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			return err
		}
	}
	line, err := lastLine(recs, len(names) > 1)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	for _, rec := range recs {
		if !rec.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", rec.Workload, rec.Failed, rec.Attempted)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
