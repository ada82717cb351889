package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/dc"
	"capmaestro/internal/scenario"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func toyConfig(seed int64) runConfig {
	return runConfig{
		seed: seed, duration: 200 * time.Millisecond, toy: true,
		setups: 1, probeCalls: 20, expectedPath: "expected.json",
	}
}

// TestSmoke runs every workload at toy size, timed and traced, and holds
// the output to the declaration: exactly the declared metric names, each
// with its unit and a finite value, no failed operation — and every
// declared per-layer metric measured by at least one workload.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	native := map[string]bool{}
	for _, w := range spec.Workloads {
		for mode, declared := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, mode), func(t *testing.T) {
				smokeOne(t, spec, w.Name, mode, declared, native)
			})
		}
	}
	for _, d := range spec.PerLayer {
		if !native[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}

func smokeOne(t *testing.T, spec *benchSpec, name string, mode int, declared []metricSpec, native map[string]bool) {
	rec, err := runOne(spec, name, toyConfig(1), mode)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", name, mode, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s trace=%d: attempted %d failed %d correct %v: %v", name, mode, rec.Attempted, rec.Failed, rec.Correct, rec.Problems)
	}
	if len(rec.Metrics) != len(declared) {
		t.Errorf("%s trace=%d: %d metrics emitted, %d declared", name, mode, len(rec.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%d: declared metric %s not emitted", name, mode, d.Name)
		case m.Unit != d.Unit || m.Unit == "":
			t.Errorf("%s %s: unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s %s: value %v", name, d.Name, m.Value)
		case mode == 0 && m.Value <= 0:
			t.Errorf("%s %s: end-to-end metric reads %v", name, d.Name, m.Value)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if m.Samples > 0 {
			native[d.Name] = true
		}
	}
	line, err := lastLine([]*record{rec}, false)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != len(declared) {
		t.Errorf("%s trace=%d: result line %s", name, mode, line)
	}
	if name == "fleet-100k" && mode == 1 {
		if got := rec.Metrics["controlplane.transport.delta_hit_ratio"].Value; math.Abs(got-0.90) > 0.02 {
			t.Errorf("fleet-100k: measured delta hit ratio %v, want 0.90 ± 0.02", got)
		}
	}
	if name == "tiers-100k" && mode == 1 {
		if got := rec.Metrics["controlplane.transport.delta_hit_ratio"].Value; got != 0 {
			t.Errorf("tiers-100k: measured delta hit ratio %v, want exactly 0", got)
		}
	}
}

// cpInputs renders everything the control-plane generators feed the
// program for a seed: initial demands, the churn schedule with its
// redraws, and the stub variants' summaries.
func cpInputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	size := cpToySize
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for r := 0; r < size.racks; r++ {
		for gen := 0; gen < cpVariants; gen++ {
			for _, leaf := range newRackTree(seed, size, r, gen).Children {
				enc.Encode(leaf.Leaf)
			}
		}
	}
	var scratch []int
	for period := 1; period <= 20; period++ {
		for g := 0; g*size.fanOut < size.racks; g++ {
			scratch = churnPicks(seed, g, period, size.fanOut, 1, scratch)
			enc.Encode(scratch)
		}
	}
	f, err := newCPFleet(seed, size, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	for _, st := range f.stubs {
		enc.Encode(st.sums)
	}
	enc.Encode(float64(f.budget))
	return buf.Bytes()
}

// Every generated input derives from the seed alone: the same seed gives
// byte-identical inputs, another seed different ones.
func TestGeneratorsAreSeeded(t *testing.T) {
	if a, b := cpInputs(t, 7), cpInputs(t, 7); !bytes.Equal(a, b) {
		t.Error("control-plane inputs differ between two generations of seed 7")
	}
	if a, b := cpInputs(t, 7), cpInputs(t, 8); bytes.Equal(a, b) {
		t.Error("control-plane inputs do not depend on the seed")
	}
	file := func(seed int64) []byte {
		data, err := json.Marshal(generateFeedfail(seed, ffFullSize, 12))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(file(7), file(7)) {
		t.Error("scenario file differs between two generations of seed 7")
	}
	if bytes.Equal(file(7), file(8)) {
		t.Error("scenario file does not depend on the seed")
	}
	if a, b := mcOptions(toyConfig(7)), mcOptions(toyConfig(8)); a.Seed != 7 || b.Seed != 8 {
		t.Errorf("Monte Carlo seeds %d and %d, want the run's seed", a.Seed, b.Seed)
	}
}

func TestChurnPicksAreDistinct(t *testing.T) {
	var scratch []int
	for period := 0; period < 200; period++ {
		scratch = churnPicks(3, period%7, period, 50, 5, scratch)
		seen := map[int]bool{}
		for _, p := range scratch {
			if p < 0 || p >= 50 || seen[p] {
				t.Fatalf("period %d: picks %v", period, scratch)
			}
			seen[p] = true
		}
		if len(scratch) != 5 {
			t.Fatalf("period %d: %d picks, want 5", period, len(scratch))
		}
	}
}

// The generated full-size scenario is what the issue describes, and the
// program accepts it.
func TestFeedfailFileShape(t *testing.T) {
	f := generateFeedfail(1, ffFullSize, 12)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Servers) != 1080 || sc.DurationSec != 7200 || !sc.SPO || sc.Policy != "global" || sc.ControlPeriodSec != 8 {
		t.Errorf("%d servers, %d s, spo %v, policy %s, period %d s", len(sc.Servers), sc.DurationSec, sc.SPO, sc.Policy, sc.ControlPeriodSec)
	}
	fails, cuts, prios := 0, 0, map[int]bool{}
	for i, ev := range sc.Events {
		if i > 0 && ev.AtSec < sc.Events[i-1].AtSec {
			t.Fatalf("events out of order at %d", i)
		}
		switch ev.Kind {
		case scenario.EventFailFeed:
			fails++
		case scenario.EventSetBudget:
			cuts++
		}
	}
	for _, sv := range sc.Servers {
		prios[sv.Priority] = true
		if !sv.DualCorded() {
			t.Fatalf("server %s is not dual-corded", sv.ID)
		}
	}
	if fails != 12 || cuts != 2 || len(prios) != 3 {
		t.Errorf("%d feed failures, %d budget events, %d priority levels", fails, cuts, len(prios))
	}
}

// The benchmark drives the simulator through RunFile's public loop. If
// the two ever part ways, the simulated results will: they must match.
func TestFeedfailReplayMatchesRunFile(t *testing.T) {
	f := generateFeedfail(3, ffToySize, 2)
	run, err := newFFRun(f)
	if err != nil {
		t.Fatal(err)
	}
	run.controlPeriods()
	got, _ := run.outcome()
	ref, err := scenario.RunFile(f, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Report.OK() || !got.reportOK() {
		t.Fatalf("assertions failed: RunFile\n%s\nreplay %v", ref.Report.Text(), got.FailedDetails)
	}
	if want := ref.SLO.ClosedWindows(); !reflect.DeepEqual(got.Windows, want) {
		t.Errorf("exposure windows differ:\n replay  %+v\n RunFile %+v", got.Windows, want)
	}
	if len(got.Windows) == 0 {
		t.Error("the toy scenario closed no exposure window")
	}
}

// capacityOf is dc.FindCapacity's rule; check it on a hand-made curve.
func TestCapacityOf(t *testing.T) {
	var pts []gridPoint
	for i, high := range []float64{0, 0.001, 0.009, 0.02, 0.005} {
		pts = append(pts, gridPoint{PerRack: 6 + 3*i, Scenario: dc.WorstCase.String(), Policy: core.GlobalPriority.String(), All: 0.5, High: high})
	}
	if got := capacityOf(pts, dc.WorstCase, core.GlobalPriority); got != 12 {
		t.Errorf("capacity %d, want 12: the search stops at the first failure after a pass", got)
	}
}
