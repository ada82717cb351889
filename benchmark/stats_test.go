package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it, capped at the 95th and never below the median.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{1000, 0.95}, // 50 beyond the 95th: the cap applies
		{200, 0.95},  // exactly ten beyond
		{100, 0.90},  // the 95th would leave five
		{40, 0.75},
		{20, 0.50},
		{12, 0.50}, // too few for any tail: the median
	} {
		v, q := tailPercentile(seq(tc.n), 10, 0.95)
		if !near(q, tc.wantQ) {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, q, tc.wantQ)
		}
		if want := quantile(seq(tc.n), tc.wantQ); !near(v, want) {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
}

// quartileSpread follows Python's statistics.quantiles(values, n=4),
// whose default method is exclusive; the expected values are Python's.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{13, 10, 12, 11}, 10.25, 12.75},
		{[]float64{2, 1}, 0.75, 2.25}, // extrapolates, as Python does
	} {
		want := (tc.q3 - tc.q1) / median(tc.values)
		if got := quartileSpread(tc.values); !near(got, want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.values, got, want)
		}
	}
	if !math.IsNaN(quartileSpread([]float64{1})) {
		t.Error("one value has no spread")
	}
}

func TestUnionCoverOverlappingSpans(t *testing.T) {
	mk := func(se ...int64) []span {
		var out []span
		for i := 0; i < len(se); i += 2 {
			out = append(out, span{Start: se[i], End: se[i+1]})
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		spans       []span
		lo, hi      int64
		cover, busy int64
	}{
		{"disjoint", mk(0, 10, 20, 30), 0, 40, 20, 20},
		{"overlapping count once", mk(0, 10, 5, 15, 20, 30), 0, 40, 25, 30},
		{"nested", mk(0, 30, 5, 10, 12, 14), 0, 40, 30, 37},
		{"unsorted input", mk(20, 30, 5, 15, 0, 10), 0, 40, 25, 30},
		{"clipped to the parent", mk(0, 10, 5, 15, 20, 30), 2, 25, 18, 23},
		{"outside the parent", mk(50, 60), 0, 40, 0, 0},
		{"touching", mk(0, 10, 10, 20), 0, 40, 20, 20},
		{"none", nil, 0, 40, 0, 0},
	} {
		cover, busy := unionCover(tc.spans, tc.lo, tc.hi)
		if cover != tc.cover || busy != tc.busy {
			t.Errorf("%s: cover %d busy %d, want %d %d", tc.name, cover, busy, tc.cover, tc.busy)
		}
		// Self time = parent − cover can never be negative.
		if self := (tc.hi - tc.lo) - cover; self < 0 {
			t.Errorf("%s: negative self time %d", tc.name, self)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, verdictOK},
		{"worse inside the bound", lower, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"latency up 20 %", lower, steady, []float64{120, 121, 119, 120, 120}, verdictRegressed},
		{"latency down is no regression", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"throughput down 20 %", higher, steady, []float64{80, 81, 79, 80, 80}, verdictRegressed},
		{"throughput up is no regression", higher, steady, []float64{150, 151, 149, 150, 150}, verdictOK},
		{"spread wider than the bound", lower, steady, []float64{80, 140, 95, 125, 100}, verdictUnresolved},
		{"single runs compare on the value", lower, []float64{100}, []float64{120}, verdictRegressed},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50 float64, ticks float64) string {
		path := filepath.Join(dir, name)
		var recs []*record
		for seed := int64(1); seed <= 4; seed++ {
			jitter := float64(seed) * 0.01
			recs = append(recs,
				&record{Workload: "feedfail-1k", Seed: seed, Seconds: 20, Trace: 0, Correct: true, Attempted: 1, Metrics: map[string]measured{
					"op_p50_ms": {Value: p50 + jitter, Unit: "ms"}, "op_p95_ms": {Value: 2 * p50, Unit: "ms"},
					"ops_per_s": {Value: 1000 / p50, Unit: "1/s"}, "setup_s": {Value: 0.3, Unit: "s"},
				}},
				&record{Workload: "feedfail-1k", Seed: seed, Seconds: 20, Trace: 1, Correct: true, Attempted: 1, Metrics: map[string]measured{
					"sim.ticks": {Value: ticks, Unit: "count"},
				}})
		}
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 20, 7200)
	if err := compareFiles(spec, base, write("same.jsonl", 20.5, 7200)); err != nil {
		t.Errorf("a run 2.5 %% slower is inside every bound, got %v", err)
	}
	if err := compareFiles(spec, base, write("slow.jsonl", 26, 7200)); err == nil {
		t.Error("a run 30 % slower must be reported as regressed")
	}
	if err := compareFiles(spec, base, write("ticks.jsonl", 20, 7201)); err == nil {
		t.Error("a simulated count that differs for the same seed must fail the comparison")
	}
}

// BENCHMARK.json must stay inside the limits the benchmark contract sets,
// or the driver refuses it before a single run.
func TestSpecWithinContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("top-level keys %d, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1-200", w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(spec.PerLayer))
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if !unitName.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", spec.RunSeconds)
	}
}
