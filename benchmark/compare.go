package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place workloads, metric names,
// units, directions and regression bounds are declared. The harness
// reads units and bounds from it and never repeats them.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: incomplete benchmark declaration", path)
	}
	return &s, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Verdicts of a comparison, per workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies one metric's bound: b regressed when its median is
// worse than a's by more than the bound; when either side's run-to-run
// spread (interquartile range over the median) is wider than the bound
// the pair cannot tell, and the metric is unresolved, not unchanged.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	if len(a) >= 2 && len(b) >= 2 && (quartileSpread(a) > m.Bound || quartileSpread(b) > m.Bound) {
		return verdictUnresolved, worse
	}
	if worse > m.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// compareFiles prints, for every workload × end-to-end metric the two
// result sets share, both medians, how much worse the second is, and the
// verdict. It fails when anything regressed or a run was incorrect.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	collect := func(recs []record) (map[key][]float64, int) {
		vals := map[key][]float64{}
		incorrect := 0
		for _, r := range recs {
			if !r.Correct {
				incorrect++
			}
			if r.Trace != 0 {
				continue
			}
			for name, m := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], m.Value)
			}
		}
		return vals, incorrect
	}
	va, badA := collect(a)
	vb, badB := collect(b)
	regressed := 0
	fmt.Printf("%-12s %-12s %14s %14s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "worse", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			k := key{w.Name, m.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			v, worse := verdict(m, va[k], vb[k])
			if v == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-12s %-12s %14.6g %14.6g %7.1f%% %7.0f%%  %s (n=%d/%d)\n",
				w.Name, m.Name, median(va[k]), median(vb[k]), 100*worse, 100*m.Bound, v, len(va[k]), len(vb[k]))
		}
	}
	exact := exactMismatches(a, b)
	for _, line := range exact {
		fmt.Println("exact count differs:", line)
	}
	if regressed > 0 || badA+badB > 0 || len(exact) > 0 {
		return fmt.Errorf("%d metrics regressed, %d exact counts differ, %d runs incorrect", regressed, len(exact), badA+badB)
	}
	return nil
}

// exactMetrics are simulated results and wire counts: for one workload,
// seed and run length they do not depend on the host, so two result sets
// must agree on them to the last digit.
var exactMetrics = []string{
	"sim.ticks", "sim.control_periods", "sim.infeasible_periods", "sim.invariant_violations",
	"breaker.trips", "slo.windows_closed", "slo.peak_risk",
	"slo.time_to_safe_p50_s", "slo.time_to_safe_max_s", "slo.trip_margin_min_x",
	"controlplane.transport.frames_per_period",
}

func exactMismatches(a, b []record) []string {
	type key struct {
		workload string
		seed     int64
		seconds  float64
		metric   string
	}
	seen := map[key]float64{}
	for _, r := range a {
		if r.Trace != 1 {
			continue
		}
		for _, name := range exactMetrics {
			seen[key{r.Workload, r.Seed, r.Seconds, name}] = r.Metrics[name].Value
		}
	}
	var diffs []string
	for _, r := range b {
		if r.Trace != 1 {
			continue
		}
		for _, name := range exactMetrics {
			k := key{r.Workload, r.Seed, r.Seconds, name}
			if want, ok := seen[k]; ok && want != r.Metrics[name].Value {
				diffs = append(diffs, fmt.Sprintf("%s seed %d %s: %v vs %v", r.Workload, r.Seed, name, want, r.Metrics[name].Value))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
