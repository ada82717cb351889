package slo

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"capmaestro/internal/flightrec"
	"capmaestro/internal/telemetry"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestRuleValidate(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		ok   bool
	}{
		{"valid", Rule{Name: "r", Signal: "s", Op: ">", Threshold: 1}, true},
		{"empty name", Rule{Signal: "s", Op: ">"}, false},
		{"empty signal", Rule{Name: "r", Op: ">"}, false},
		{"bad op", Rule{Name: "r", Signal: "s", Op: "=="}, false},
		{"bad severity", Rule{Name: "r", Signal: "s", Op: "<", Severity: "page"}, false},
		{"negative for", Rule{Name: "r", Signal: "s", Op: "<", ForPeriods: -1}, false},
		{"negative deadband", Rule{Name: "r", Signal: "s", Op: "<", Deadband: -0.1}, false},
	}
	for _, tc := range cases {
		err := tc.rule.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	r := Rule{Name: "r", Signal: "s", Op: ">"}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.ForPeriods != 1 || r.Severity != SeverityWarn {
		t.Errorf("defaults not applied: %+v", r)
	}
}

func TestDefaultRulesValid(t *testing.T) {
	rules := DefaultRules()
	if len(rules) == 0 {
		t.Fatal("no default rules")
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			t.Errorf("default rule %s: %v", r.Name, err)
		}
	}
}

func TestLoadRules(t *testing.T) {
	good := `[{"name":"hot","signal":"trip_risk","op":">","threshold":0.8,"severity":"critical"}]`
	rules, err := LoadRules(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Name != "hot" || rules[0].ForPeriods != 1 {
		t.Errorf("loaded rules = %+v", rules)
	}
	for _, bad := range []string{
		`[]`,
		`[{"name":"x","signal":"s","op":"!="}]`,
		`[{"name":"x","signal":"s","op":">","bogus":1}]`,
		`{"name":"x"}`,
	} {
		if _, err := LoadRules(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadRules(%s) should fail", bad)
		}
	}
}

// TestEngineForPeriods checks a rule with for_periods only fires after
// the breach persists, and that an interrupted streak resets.
func TestEngineForPeriods(t *testing.T) {
	eng, err := newEngine([]Rule{{
		Name: "risk", Signal: "s", Op: ">", Threshold: 0.5, ForPeriods: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fire := func(now, v float64) []Transition {
		return eng.eval(now, []Sample{{Signal: "s", Value: v}})
	}
	if tr := fire(1, 0.9); len(tr) != 0 {
		t.Fatalf("fired after 1 breach: %v", tr)
	}
	if tr := fire(2, 0.9); len(tr) != 0 {
		t.Fatalf("fired after 2 breaches: %v", tr)
	}
	if tr := fire(3, 0.2); len(tr) != 0 {
		t.Fatalf("non-breach produced transition: %v", tr)
	}
	// Streak was reset; two more breaches must not fire.
	fire(4, 0.9)
	if tr := fire(5, 0.9); len(tr) != 0 {
		t.Fatal("fired before streak rebuilt")
	}
	tr := fire(6, 0.9)
	if len(tr) != 1 || tr[0].State != StateFiring || tr[0].AtSec != 6 {
		t.Fatalf("expected firing at t=6, got %v", tr)
	}
	// Already firing: further breaches are silent.
	if tr := fire(7, 0.95); len(tr) != 0 {
		t.Fatalf("re-fired while firing: %v", tr)
	}
}

// TestEngineDeadband checks the anti-flap behaviour: inside the deadband
// a firing alert holds; it resolves only past threshold−deadband.
func TestEngineDeadband(t *testing.T) {
	eng, err := newEngine([]Rule{{
		Name: "risk", Signal: "s", Op: ">", Threshold: 0.5, Deadband: 0.1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fire := func(now, v float64) []Transition {
		return eng.eval(now, []Sample{{Signal: "s", Value: v}})
	}
	if tr := fire(1, 0.6); len(tr) != 1 || tr[0].State != StateFiring {
		t.Fatalf("expected immediate fire, got %v", tr)
	}
	// 0.45 is below threshold but inside the deadband (> 0.4): holds.
	if tr := fire(2, 0.45); len(tr) != 0 {
		t.Fatalf("resolved inside deadband: %v", tr)
	}
	if got := eng.activeCount(); got != 1 {
		t.Fatalf("active = %d during deadband hold", got)
	}
	tr := fire(3, 0.39)
	if len(tr) != 1 || tr[0].State != StateResolved {
		t.Fatalf("expected resolve below deadband, got %v", tr)
	}
	// And it can fire again.
	if tr := fire(4, 0.7); len(tr) != 1 || tr[0].State != StateFiring {
		t.Fatalf("expected re-fire, got %v", tr)
	}
	fired, resolved := eng.transitionCounts("risk")
	if fired != 2 || resolved != 1 {
		t.Errorf("counts = %d fired %d resolved, want 2/1", fired, resolved)
	}
}

// TestEngineLabels checks per-label state isolation and that a label
// absent from an evaluation keeps its firing state.
func TestEngineLabels(t *testing.T) {
	eng, err := newEngine([]Rule{{
		Name: "stale", Signal: "s", Op: ">=", Threshold: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	tr := eng.eval(1, []Sample{
		{Signal: "s", Label: "rack0", Value: 4},
		{Signal: "s", Label: "rack1", Value: 0},
	})
	if len(tr) != 1 || tr[0].Label != "rack0" {
		t.Fatalf("expected rack0 to fire alone, got %v", tr)
	}
	// rack0 missing from this eval: stays firing.
	eng.eval(2, []Sample{{Signal: "s", Label: "rack1", Value: 0}})
	active := eng.active()
	if len(active) != 1 || active[0].Label != "rack0" {
		t.Fatalf("active after gap = %v", active)
	}
	tr = eng.eval(3, []Sample{{Signal: "s", Label: "rack0", Value: 0}})
	if len(tr) != 1 || tr[0].State != StateResolved {
		t.Fatalf("expected rack0 resolve, got %v", tr)
	}
}

// TestTrackerWindowLifecycle drives a fault through open → unsafe ticks
// → close and checks the duration/timeToTrip bookkeeping.
func TestTrackerWindowLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OpenWindow() != nil || tr.WindowsClosed() != 0 {
		t.Fatal("tracker not empty at start")
	}
	// Safety verdicts with no open window are ignored.
	tr.ObserveExposure(sec(5), false, sec(100))
	if tr.OpenWindow() != nil {
		t.Fatal("window opened without a fault")
	}

	tr.RecordFault(sec(10), "feed-fail:B")
	tr.RecordFault(sec(11), "feed-fail:B") // dedup
	tr.RecordFault(sec(12), "budget-cut:A")
	w := tr.OpenWindow()
	if w == nil || len(w.Causes) != 2 || !w.Open {
		t.Fatalf("open window = %+v", w)
	}
	tr.SetTripRisk("A", 0.2)
	tr.ObserveExposure(sec(11), false, sec(100))
	tr.ObserveExposure(sec(12), false, sec(80)) // worst overload
	tr.ObserveExposure(sec(13), false, 0)       // unsafe without overload
	tr.ObserveExposure(sec(30), true, 0)

	if tr.OpenWindow() != nil {
		t.Fatal("window still open after safe tick")
	}
	closed := tr.ClosedWindows()
	if len(closed) != 1 {
		t.Fatalf("closed = %d windows", len(closed))
	}
	got := closed[0]
	if got.DurationSec != 20 || got.MinTimeToTripSec != 80 {
		t.Errorf("duration/minTTT = %v/%v, want 20/80", got.DurationSec, got.MinTimeToTripSec)
	}
	if got.Ratio != 0.25 || got.Margin() != 4 {
		t.Errorf("ratio %v margin %v, want 0.25/4", got.Ratio, got.Margin())
	}
	if got.PeakRisk != 0.2 {
		t.Errorf("peak risk = %v", got.PeakRisk)
	}
	if tr.WorstRatio() != 0.25 || tr.WorstMargin() != 4 {
		t.Errorf("worst ratio/margin = %v/%v", tr.WorstRatio(), tr.WorstMargin())
	}
	if q := tr.TimeToSafeQuantile(1); q <= 0 {
		t.Errorf("time-to-safe quantile = %v", q)
	}
	// The 4× margin is under the default 5× rule: the engine should fire
	// the critical margin alert on the next evaluation.
	trans := tr.EvalPeriod(sec(32))
	var fired bool
	for _, x := range trans {
		if x.Rule.Name == "time-to-safe-margin" && x.State == StateFiring {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("margin alert did not fire: %v", trans)
	}
	if tr.Status() != telemetry.HealthCritical {
		t.Errorf("status = %v, want critical", tr.Status())
	}
	level, msg := tr.HealthCheck()
	if level != telemetry.HealthCritical || !strings.Contains(msg, "time-to-safe-margin") {
		t.Errorf("health check = %v %q", level, msg)
	}
}

// TestTrackerNoOverloadWindow: a budget cut that never overloads a
// breaker closes with ratio 0 and a capped margin.
func TestTrackerNoOverloadWindow(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr.RecordFault(sec(0), "budget-cut:A")
	tr.ObserveExposure(sec(1), false, 0)
	tr.ObserveExposure(sec(9), true, 0)
	closed := tr.ClosedWindows()
	if len(closed) != 1 || closed[0].Ratio != 0 || closed[0].Margin() != MarginCap {
		t.Fatalf("closed = %+v", closed)
	}
	if tr.WorstMargin() != MarginCap {
		t.Errorf("worst margin = %v", tr.WorstMargin())
	}
	// Margin rule must not fire from a no-overload window.
	for _, x := range tr.EvalPeriod(sec(10)) {
		if x.Rule.Name == "time-to-safe-margin" {
			t.Errorf("margin alert fired without overload: %v", x)
		}
	}
}

// TestTrackerAnnotations checks alert transitions land on the flight
// recorder's newest period record.
func TestTrackerAnnotations(t *testing.T) {
	rec := flightrec.NewRecorder(4)
	rec.Add(flightrec.PeriodRecord{Label: "p0"})
	tr, err := New(Config{
		Rules:    []Rule{{Name: "hot", Signal: SignalTripRisk, Op: ">", Threshold: 0.5}},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTripRisk("A", 0.9)
	tr.EvalPeriod(sec(8))
	recs := rec.Records()
	if len(recs) != 1 || len(recs[0].Annotations) != 1 {
		t.Fatalf("annotations = %+v", recs)
	}
	a := recs[0].Annotations[0]
	if a.Kind != "alert-firing" || !strings.Contains(a.Text, "hot") {
		t.Errorf("annotation = %+v", a)
	}
	if rec.Summaries()[0].Annotations != 1 {
		t.Error("summary annotation count missing")
	}
}

// TestNilTracker exercises the nil-safety contract.
func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.RecordFault(0, "x")
	tr.ObserveExposure(0, true, 0)
	tr.SetTripRisk("A", 1)
	if got := tr.EvalPeriod(0); got != nil {
		t.Errorf("nil EvalPeriod = %v", got)
	}
	if tr.Status() != telemetry.HealthOK {
		t.Error("nil tracker not OK")
	}
	if tr.OpenWindow() != nil || tr.ClosedWindows() != nil || tr.ActiveAlerts() != nil {
		t.Error("nil tracker returned state")
	}
	rep := tr.debugReport()
	if rep.Status != "ok" {
		t.Errorf("nil debug report = %+v", rep)
	}
}

// TestDebugHandler round-trips /debug/slo through JSON.
func TestDebugHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	tr.RecordFault(sec(1), "feed-fail:B")
	tr.SetTripRisk("A", 0.3)
	tr.ObserveExposure(sec(2), false, sec(50))
	tr.ObserveExposure(sec(6), true, 0)
	tr.EvalPeriod(sec(8))

	rr := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	var rep struct {
		Status   string             `json:"status"`
		TripRisk map[string]float64 `json:"trip_risk"`
		Exposure struct {
			Closed      []Window `json:"closed"`
			ClosedTotal uint64   `json:"closed_total"`
			WorstMargin float64  `json:"worst_margin"`
			P99         float64  `json:"p99_duration_sec"`
		} `json:"exposure"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if rep.TripRisk["A"] != 0.3 {
		t.Errorf("trip risk = %v", rep.TripRisk)
	}
	if rep.Exposure.ClosedTotal != 1 || len(rep.Exposure.Closed) != 1 {
		t.Errorf("exposure = %+v", rep.Exposure)
	}
	// Duration 5 s (opened t=1, closed t=6) against a 50 s timeToTrip:
	// margin exactly 10.
	if rep.Exposure.WorstMargin < 9 || rep.Exposure.WorstMargin > 11 {
		t.Errorf("worst margin = %v, want 10", rep.Exposure.WorstMargin)
	}
	if rep.Exposure.P99 <= 0 {
		t.Errorf("p99 = %v", rep.Exposure.P99)
	}
	// Margin 10 clears the default 5× rule, so nothing fires.
	if rep.Status != "ok" {
		t.Errorf("status = %q", rep.Status)
	}
}

// TestEvalPeriodAllocatesNothing: once every (rule, label) state exists,
// a period evaluation over 1 080 per-server samples that moves no alert
// allocates nothing — the tracker reuses its sample buffer and the state
// keys are built without concatenation.
func TestEvalPeriodAllocatesNothing(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTripRisk("X", 0.1)
	tr.SetTripRisk("Y", 0.2)
	samples := make([]Sample, 1080)
	for i := range samples {
		samples[i] = Sample{Signal: SignalCapViolationStreak, Label: fmt.Sprintf("s%04d", i)}
	}
	now := sec(8)
	if trans := tr.EvalPeriod(now, samples...); len(trans) != 0 {
		t.Fatalf("warm-up evaluation fired %v", trans)
	}
	allocs := testing.AllocsPerRun(10, func() {
		now += sec(8)
		if trans := tr.EvalPeriod(now, samples...); len(trans) != 0 {
			t.Fatalf("steady evaluation fired %v", trans)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady EvalPeriod allocates %v times, want 0", allocs)
	}
}
