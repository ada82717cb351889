package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// quietFleet is a dual-corded two-rack fleet with comfortable headroom:
// nothing caps, nothing trips, every gauge stays at zero.
func quietFleet(durationSec int) FleetSpec {
	return FleetSpec{
		Policy:      "global",
		DurationSec: durationSec,
		Topology: TopologySpec{RPPs: []RPPSpec{{
			XRating: 6000, YRating: 6000,
			Racks: []RackSpec{{XRating: 2400, YRating: 2400}},
		}}},
		Groups: []ServerGroup{{
			Prefix: "s", Count: 4, RPP: 0, Rack: 0,
			Priority: 1, XShare: 0.5, Utilization: 0.5,
		}},
	}
}

// stressedFleet single-cords four hot servers onto one X-side rack whose
// derated limit forces capping, but whose rating holds the capped load.
func stressedFleet(durationSec int) FleetSpec {
	f := quietFleet(durationSec)
	f.Topology.RPPs[0].Racks[0] = RackSpec{XRating: 2000, YRating: 2000}
	f.Groups[0].XShare = 1
	f.Groups[0].Utilization = 0.9
	return f
}

// surgeFleet is dual-corded with no headroom to spare: healthy it runs
// uncapped, but one feed's failure overloads the survivor's rack breaker
// (1828 W on a 1600 W rating) until the next 8 s control period caps the
// servers back under the derated limit. Exposure windows opened by the
// fault therefore stay open for a deterministic handful of seconds.
func surgeFleet(durationSec int) FleetSpec {
	f := quietFleet(durationSec)
	f.Topology.RPPs[0].Racks[0] = RackSpec{XRating: 1600, YRating: 1600}
	f.Groups[0].Utilization = 0.9
	return f
}

// trippingFleet pins aggregate server floors (4 × 270 W) far above a
// 600 W rack rating: capping cannot shed below the floors, the budget is
// infeasible, and the breaker must thermally trip (≈21 s at 1.8×).
func trippingFleet(durationSec int) FleetSpec {
	f := stressedFleet(durationSec)
	f.Topology.RPPs[0].Racks[0] = RackSpec{XRating: 600, YRating: 600}
	return f
}

func runTestFile(t *testing.T, fleet FleetSpec, events []Event, asserts []Assertion) *RunReport {
	t.Helper()
	f := &File{Name: "t-" + t.Name(), Fleet: fleet, Events: events, Assertions: asserts}
	res, err := RunFile(f, RunOptions{})
	if err != nil {
		t.Fatalf("RunFile: %v", err)
	}
	return res.Report
}

// TestAssertionKinds drives every assertion kind through a passing, a
// failing, and (where the kind has a meaningful edge) a boundary case on
// purpose-built fleets.
func TestAssertionKinds(t *testing.T) {
	feedFail := []Event{{AtSec: 20, Kind: EventFailFeed, Feed: FeedX}}
	cases := []struct {
		name     string
		fleet    FleetSpec
		events   []Event
		assert   Assertion
		wantPass bool
		wantErr  string // substring of the failure message
	}{
		{name: "no_trips/pass", fleet: quietFleet(30), assert: Assertion{Kind: AssertNoTrips}, wantPass: true},
		{name: "no_trips/fail", fleet: trippingFleet(60), assert: Assertion{Kind: AssertNoTrips},
			wantErr: "breakers tripped"},

		{name: "no_violations/pass", fleet: stressedFleet(30), assert: Assertion{Kind: AssertNoViolations}, wantPass: true},

		{name: "feasible/pass", fleet: stressedFleet(30), assert: Assertion{Kind: AssertFeasible}, wantPass: true},
		{name: "feasible/fail", fleet: trippingFleet(30), assert: Assertion{Kind: AssertFeasible},
			wantErr: "infeasible control periods"},

		{name: "throughput_floor/pass", fleet: quietFleet(30),
			assert: Assertion{Kind: AssertThroughputFloor, Priority: 1, Min: 0.99}, wantPass: true},
		{name: "throughput_floor/boundary", fleet: quietFleet(30),
			// An uncapped fleet runs at exactly perf 1.0, so min: 1 is the
			// inclusive boundary and must pass.
			assert: Assertion{Kind: AssertThroughputFloor, Priority: 1, Min: 1}, wantPass: true},
		{name: "throughput_floor/fail", fleet: stressedFleet(40),
			assert:  Assertion{Kind: AssertThroughputFloor, Priority: 1, Min: 0.99, FromSec: 20},
			wantErr: "below floor"},

		{name: "time_to_safe/pass", fleet: surgeFleet(90), events: feedFail,
			assert: Assertion{Kind: AssertTimeToSafe, MaxSec: 60, MinMargin: 2}, wantPass: true},
		{name: "time_to_safe/fail_open", fleet: surgeFleet(21), events: feedFail,
			// The run ends before the next control period can shed the
			// overload, so the window cannot have closed yet.
			assert:  Assertion{Kind: AssertTimeToSafe, MaxSec: 300},
			wantErr: "still open at end of run"},

		{name: "max_trip_risk/pass_boundary", fleet: quietFleet(30),
			// A quiet fleet accumulates zero heat; max: 0 is the inclusive
			// boundary and must pass.
			assert: Assertion{Kind: AssertMaxTripRisk, Max: 0}, wantPass: true},
		{name: "max_trip_risk/fail", fleet: trippingFleet(60),
			assert:  Assertion{Kind: AssertMaxTripRisk, Max: 0.5},
			wantErr: "peak trip risk"},

		{name: "budgets_match_oracle/pass", fleet: stressedFleet(30),
			assert: Assertion{Kind: AssertBudgetsMatchOracle}, wantPass: true},

		{name: "node_power/pass", fleet: quietFleet(30),
			assert:   Assertion{Kind: AssertNodePower, Node: "X-rpp0-cdu0", MinWatts: 100, MaxWatts: 2000},
			wantPass: true},
		{name: "node_power/fail_max", fleet: quietFleet(30),
			assert:  Assertion{Kind: AssertNodePower, Node: "X-rpp0-cdu0", MaxWatts: 10},
			wantErr: "above 10.0 W"},
		{name: "node_power/fail_min", fleet: quietFleet(30),
			assert:  Assertion{Kind: AssertNodePower, Node: "X-rpp0-cdu0", MinWatts: 5000},
			wantErr: "below 5000.0 W"},

		{name: "exposure_windows/pass_zero", fleet: quietFleet(30),
			assert: Assertion{Kind: AssertExposureWindows, Exactly: 0}, wantPass: true},
		{name: "exposure_windows/pass_one", fleet: quietFleet(90), events: feedFail,
			assert: Assertion{Kind: AssertExposureWindows, Exactly: 1}, wantPass: true},
		{name: "exposure_windows/fail_count", fleet: quietFleet(90), events: feedFail,
			assert:  Assertion{Kind: AssertExposureWindows, Exactly: 2},
			wantErr: "1 windows closed, want 2"},
		{name: "exposure_windows/fail_open", fleet: surgeFleet(21), events: feedFail,
			assert:  Assertion{Kind: AssertExposureWindows, Exactly: 0},
			wantErr: "still open at end of run"},
		{name: "exposure_windows/pass_allow_open", fleet: surgeFleet(21), events: feedFail,
			assert:   Assertion{Kind: AssertExposureWindows, Exactly: 0, AllowOpen: true},
			wantPass: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep := runTestFile(t, tc.fleet, tc.events, []Assertion{tc.assert})
			res := rep.Results[0]
			if res.Pass != tc.wantPass {
				t.Fatalf("pass = %v, want %v (error %q)", res.Pass, tc.wantPass, res.Error)
			}
			if !tc.wantPass && !strings.Contains(res.Error, tc.wantErr) {
				t.Fatalf("error %q does not contain %q", res.Error, tc.wantErr)
			}
			if rep.OK() != tc.wantPass {
				t.Fatalf("report OK = %v, want %v", rep.OK(), tc.wantPass)
			}
		})
	}
}

// TestNoViolationsFail exercises the no_violations failure branch
// directly: Evaluate on a simulator that never ran also covers the
// oracle's no-period error.
func TestOracleNoPeriod(t *testing.T) {
	f := &File{Name: "t", Fleet: quietFleet(30),
		Assertions: []Assertion{{Kind: AssertBudgetsMatchOracle}}}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sc.BuildSim()
	if err != nil {
		t.Fatal(err)
	}
	// No Run: the simulator has no control period to check against.
	rep := Evaluate(f, s, nil, NewProbe(f))
	if rep.OK() {
		t.Fatal("oracle assertion passed without a control period")
	}
	if got := rep.Results[0].Error; !strings.Contains(got, "no control period has run") {
		t.Fatalf("error = %q", got)
	}
}

// TestAssertionLint pins the validation errors for malformed assertions.
func TestAssertionLint(t *testing.T) {
	cases := []struct {
		name    string
		assert  Assertion
		wantErr string
	}{
		{"unknown_kind", Assertion{Kind: "frobnicate"},
			`assertion 0 (frobnicate): unknown assertion kind`},
		{"floor_min_zero", Assertion{Kind: AssertThroughputFloor, Priority: 1},
			`min 0 outside (0,1]`},
		{"floor_min_high", Assertion{Kind: AssertThroughputFloor, Priority: 1, Min: 1.5},
			`min 1.5 outside (0,1]`},
		{"floor_no_such_priority", Assertion{Kind: AssertThroughputFloor, Priority: 7, Min: 0.5},
			`no server ever has priority 7`},
		{"tts_empty", Assertion{Kind: AssertTimeToSafe},
			`needs max_sec or min_margin`},
		{"risk_range", Assertion{Kind: AssertMaxTripRisk, Max: 1.5},
			`max 1.5 outside [0,1]`},
		{"node_unknown", Assertion{Kind: AssertNodePower, Node: "nope", MaxWatts: 10},
			`unknown node "nope"`},
		{"node_is_supply", Assertion{Kind: AssertNodePower, Node: SupplyID("s-0", FeedX), MaxWatts: 10},
			`node "s-0-psX" is a supply, not a distribution node`},
		{"node_no_bounds", Assertion{Kind: AssertNodePower, Node: "X-rpp0"},
			`needs min_watts or max_watts`},
		{"node_inverted", Assertion{Kind: AssertNodePower, Node: "X-rpp0", MinWatts: 20, MaxWatts: 10},
			`min_watts 20 above max_watts 10`},
		{"windows_negative", Assertion{Kind: AssertExposureWindows, Exactly: -1},
			`exactly -1 negative`},
		{"window_outside_run", Assertion{Kind: AssertNoTrips, ToSec: 99},
			`window [0,99] outside run of 30s`},
		{"window_empty", Assertion{Kind: AssertNoTrips, FromSec: 20, ToSec: 10},
			`window [20,10] is empty`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := &File{Name: "t", Fleet: quietFleet(30), Assertions: []Assertion{tc.assert}}
			err := f.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.assert)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFileLint pins the document-level validation errors.
func TestFileLint(t *testing.T) {
	base := func() *File {
		return &File{Name: "t", Fleet: quietFleet(60),
			Assertions: []Assertion{{Kind: AssertNoTrips}}}
	}
	t.Run("no_name", func(t *testing.T) {
		f := base()
		f.Name = ""
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "file has no name") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no_assertions", func(t *testing.T) {
		f := base()
		f.Assertions = nil
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), `file "t" has no assertions`) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("negative_event_time", func(t *testing.T) {
		f := base()
		f.Events = []Event{{AtSec: -5, Kind: EventFailFeed, Feed: FeedX}}
		want := `scenario: event "fail_feed" at -5s outside run of 60s`
		if err := f.Validate(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("event_after_horizon", func(t *testing.T) {
		f := base()
		f.Events = []Event{{AtSec: 61, Kind: EventFailFeed, Feed: FeedX}}
		want := `scenario: event "fail_feed" at 61s outside run of 60s`
		if err := f.Validate(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("drain_without_cordon", func(t *testing.T) {
		f := base()
		f.Events = []Event{{AtSec: 10, Kind: EventDrain, Node: "X-rpp0-cdu0"}}
		want := `scenario: event "drain" at 10s: server "s-0" under node "X-rpp0-cdu0" is not cordoned`
		if err := f.Validate(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("uncordon_then_drain", func(t *testing.T) {
		f := base()
		f.Events = []Event{
			{AtSec: 5, Kind: EventCordon, Node: "X-rpp0-cdu0"},
			{AtSec: 10, Kind: EventUncordon, Node: "X-rpp0-cdu0"},
			{AtSec: 15, Kind: EventDrain, Node: "X-rpp0-cdu0"},
		}
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "is not cordoned") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("operator_event_unknown_node", func(t *testing.T) {
		f := base()
		f.Events = []Event{{AtSec: 10, Kind: EventCordon, Node: "nope"}}
		want := `scenario: event "cordon" references unknown node "nope"`
		if err := f.Validate(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("node_budget_on_supply", func(t *testing.T) {
		f := base()
		f.Events = []Event{{AtSec: 10, Kind: EventSetNodeBudget, Node: SupplyID("s-0", FeedX), Value: 100}}
		want := `scenario: event "set_node_budget" references supply "s-0-psX", not a distribution node`
		if err := f.Validate(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("node_budget_negative", func(t *testing.T) {
		f := base()
		f.Events = []Event{{AtSec: 10, Kind: EventSetNodeBudget, Node: "X-rpp0", Value: -3}}
		want := `scenario: event "set_node_budget" budget -3 invalid`
		if err := f.Validate(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("group_without_prefix", func(t *testing.T) {
		f := base()
		f.Fleet.Groups = append(f.Fleet.Groups, ServerGroup{Count: 2})
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "group 1 has no prefix") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("group_bad_count", func(t *testing.T) {
		f := base()
		f.Fleet.Groups[0].Count = 0
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), `group "s" count 0 invalid`) {
			t.Fatalf("err = %v", err)
		}
	})
}

// probeLibraryFile runs a committed scenario second by second under a
// fresh probe, the way RunFile does, and returns the probe.
func probeLibraryFile(t *testing.T, name string) *Probe {
	t.Helper()
	f, err := ReadFile(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sc.BuildSim()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProbe(f)
	for i := 0; i < sc.DurationSec; i++ {
		s.Run(time.Second)
		p.Sample(s)
	}
	return p
}

// TestProbeSamplesOnlyAssertedSeries: a file without a throughput_floor
// assertion carries no perf series, and one with it still sees exactly
// the worst perf level (and its second) the full sampling saw.
func TestProbeSamplesOnlyAssertedSeries(t *testing.T) {
	if p := probeLibraryFile(t, "breaker-near-trip-storm.yaml"); len(p.perf) != 0 {
		t.Errorf("file without throughput_floor sampled perf series for %d priorities", len(p.perf))
	}
	p := probeLibraryFile(t, "feed-failure-peak.yaml")
	if worst, at := p.worstPerf(2, 60, 150); worst != 0.8630442970070579 || at != 97 {
		t.Errorf("feed-failure-peak priority 2 worst perf %v at t=%ds, want 0.8630442970070579 at t=97s", worst, at)
	}
}
