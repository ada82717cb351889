package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"capmaestro/internal/scenario/refalloc"
	"capmaestro/internal/sim"
	"capmaestro/internal/slo"
	"capmaestro/internal/topology"
)

// Assertion kinds the engine evaluates after a run. Value fields double
// across kinds (documented per kind below); unused fields must be zero.
const (
	// AssertNoTrips: no breaker opened during the run.
	AssertNoTrips = "no_trips"
	// AssertNoViolations: the safety monitor recorded no allocation
	// invariant violations.
	AssertNoViolations = "no_violations"
	// AssertFeasible: no control period saw an infeasible budget.
	AssertFeasible = "feasible"
	// AssertThroughputFloor: the mean performance level of the servers at
	// a priority, sampled every second of [from_sec, to_sec], never drops
	// below min.
	AssertThroughputFloor = "throughput_floor"
	// AssertTimeToSafe: every exposure window closed within max_sec (when
	// set) and with a safety margin of at least min_margin (when set).
	AssertTimeToSafe = "time_to_safe"
	// AssertMaxTripRisk: the peak breaker trip-risk score stayed ≤ max.
	AssertMaxTripRisk = "max_trip_risk"
	// AssertBudgetsMatchOracle: the naive refalloc reference, run over the
	// final control period's actual allocator input, reproduces the
	// simulator's applied budgets watt-for-watt.
	AssertBudgetsMatchOracle = "budgets_match_oracle"
	// AssertNodePower: a distribution node's measured load, sampled every
	// second of [from_sec, to_sec], stays within [min_watts, max_watts].
	AssertNodePower = "node_power"
	// AssertExposureWindows: exactly N exposure windows closed, and none
	// is left open unless allow_open.
	AssertExposureWindows = "exposure_windows"
)

// Assertion is one post-run check. Which fields apply depends on Kind;
// see the kind constants.
type Assertion struct {
	Kind string `json:"kind"`

	Priority int     `json:"priority,omitempty"` // throughput_floor
	Min      float64 `json:"min,omitempty"`      // throughput_floor
	Max      float64 `json:"max,omitempty"`      // max_trip_risk

	FromSec int `json:"from_sec,omitempty"` // sampling window (default whole run)
	ToSec   int `json:"to_sec,omitempty"`

	Node     string  `json:"node,omitempty"`      // node_power
	MinWatts float64 `json:"min_watts,omitempty"` // node_power
	MaxWatts float64 `json:"max_watts,omitempty"` // node_power

	MaxSec    float64 `json:"max_sec,omitempty"`    // time_to_safe (0 = unset)
	MinMargin float64 `json:"min_margin,omitempty"` // time_to_safe (0 = unset)

	Exactly   int  `json:"exactly,omitempty"`    // exposure_windows
	AllowOpen bool `json:"allow_open,omitempty"` // exposure_windows
}

// validate lints one assertion against the scenario it asserts over.
func (a *Assertion) validate(sc *Scenario, topo *topology.Topology) error {
	if a.FromSec < 0 || a.ToSec < 0 || a.ToSec > sc.DurationSec {
		return fmt.Errorf("window [%d,%d] outside run of %ds", a.FromSec, a.ToSec, sc.DurationSec)
	}
	if a.ToSec != 0 && a.FromSec > a.ToSec {
		return fmt.Errorf("window [%d,%d] is empty", a.FromSec, a.ToSec)
	}
	switch a.Kind {
	case AssertNoTrips, AssertNoViolations, AssertFeasible, AssertBudgetsMatchOracle:
		// No parameters.
	case AssertThroughputFloor:
		if a.Priority < 0 {
			return fmt.Errorf("priority %d negative", a.Priority)
		}
		if !(a.Min > 0) || a.Min > 1 || math.IsNaN(a.Min) {
			return fmt.Errorf("min %v outside (0,1]", a.Min)
		}
		found := false
		for i := range sc.Servers {
			if sc.Servers[i].Priority == a.Priority {
				found = true
				break
			}
		}
		for _, ev := range sc.Events {
			if ev.Kind == EventSetPriority && int(ev.Value) == a.Priority {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no server ever has priority %d", a.Priority)
		}
	case AssertTimeToSafe:
		if a.MaxSec == 0 && a.MinMargin == 0 {
			return fmt.Errorf("needs max_sec or min_margin")
		}
		if a.MaxSec < 0 || a.MinMargin < 0 {
			return fmt.Errorf("max_sec %v / min_margin %v negative", a.MaxSec, a.MinMargin)
		}
	case AssertMaxTripRisk:
		if a.Max < 0 || a.Max > 1 || math.IsNaN(a.Max) {
			return fmt.Errorf("max %v outside [0,1]", a.Max)
		}
	case AssertNodePower:
		n := topo.Node(a.Node)
		if n == nil {
			return fmt.Errorf("unknown node %q", a.Node)
		}
		if n.Kind == topology.KindSupply {
			return fmt.Errorf("node %q is a supply, not a distribution node", a.Node)
		}
		if a.MaxWatts == 0 && a.MinWatts == 0 {
			return fmt.Errorf("needs min_watts or max_watts")
		}
		if a.MinWatts < 0 || a.MaxWatts < 0 {
			return fmt.Errorf("negative watt bound")
		}
		if a.MaxWatts != 0 && a.MinWatts > a.MaxWatts {
			return fmt.Errorf("min_watts %v above max_watts %v", a.MinWatts, a.MaxWatts)
		}
	case AssertExposureWindows:
		if a.Exactly < 0 {
			return fmt.Errorf("exactly %d negative", a.Exactly)
		}
	default:
		return fmt.Errorf("unknown assertion kind")
	}
	return nil
}

// window resolves the assertion's sampling window against the run
// duration: [from, to] inclusive, in whole seconds from 1.
func (a *Assertion) window(durationSec int) (from, to int) {
	from, to = a.FromSec, a.ToSec
	if from < 1 {
		from = 1
	}
	if to == 0 || to > durationSec {
		to = durationSec
	}
	return from, to
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Pass   bool   `json:"pass"`
	Error  string `json:"error,omitempty"`
}

// RunReport is the structured outcome of running a scenario file.
type RunReport struct {
	Scenario    string            `json:"scenario"`
	DurationSec int               `json:"duration_sec"`
	Results     []AssertionResult `json:"results"`
	Passed      int               `json:"passed"`
	Failed      int               `json:"failed"`
}

// OK reports whether every assertion passed.
func (r *RunReport) OK() bool { return r.Failed == 0 }

// Text renders the report as aligned PASS/FAIL lines.
func (r *RunReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %ds run, %d assertions\n", r.Scenario, r.DurationSec, len(r.Results))
	for _, res := range r.Results {
		mark := "PASS"
		if !res.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  %s %-22s %s", mark, res.Kind, res.Detail)
		if res.Error != "" {
			fmt.Fprintf(&b, ": %s", res.Error)
		}
		b.WriteByte('\n')
	}
	if r.OK() {
		fmt.Fprintf(&b, "PASS (%d/%d)\n", r.Passed, len(r.Results))
	} else {
		fmt.Fprintf(&b, "FAIL (%d of %d assertions failed)\n", r.Failed, len(r.Results))
	}
	return b.String()
}

// Probe samples the per-second signals window-scoped assertions need, and
// only those: node series for node_power nodes, perf series only when a
// throughput_floor assertion reads them. Sample index i holds the state
// after second i+1 of the run.
type Probe struct {
	nodes    map[string][]float64 // nodeID → watts per second
	perf     map[int][]float64    // priority → mean perf level per second; nil when unread
	nodeIDs  []string             // which nodes to sample
	samples  int
	duration int
}

// NewProbe prepares a probe for the assertions in the file.
func NewProbe(f *File) *Probe {
	p := &Probe{
		nodes:    map[string][]float64{},
		duration: f.Fleet.DurationSec,
	}
	seen := map[string]bool{}
	for i := range f.Assertions {
		a := &f.Assertions[i]
		if a.Kind == AssertNodePower && !seen[a.Node] {
			seen[a.Node] = true
			p.nodeIDs = append(p.nodeIDs, a.Node)
		}
		if a.Kind == AssertThroughputFloor && p.perf == nil {
			p.perf = map[int][]float64{}
		}
	}
	sort.Strings(p.nodeIDs)
	return p
}

// Sample records one second's signals from the simulator. Per-priority
// series stay aligned to the sample clock: a priority that exists only
// part of the run (servers re-prioritized mid-run) carries NaN for the
// seconds it had no servers.
func (p *Probe) Sample(s *sim.Simulator) {
	for _, id := range p.nodeIDs {
		p.nodes[id] = append(p.nodes[id], float64(s.NodeLoad(id)))
	}
	if p.perf == nil {
		return
	}
	sum := map[int]float64{}
	cnt := map[int]int{}
	for _, id := range s.ServerIDs() {
		srv := s.Server(id)
		pr := int(srv.Priority())
		sum[pr] += srv.PerfLevel()
		cnt[pr]++
	}
	for pr := range cnt {
		if _, known := p.perf[pr]; !known {
			gap := make([]float64, p.samples)
			for i := range gap {
				gap[i] = math.NaN()
			}
			p.perf[pr] = gap
		}
	}
	p.samples++
	for pr, series := range p.perf {
		if n, ok := cnt[pr]; ok {
			p.perf[pr] = append(series, sum[pr]/float64(n))
		} else {
			p.perf[pr] = append(series, math.NaN())
		}
	}
}

// worstPerf returns a priority's lowest mean perf level over seconds
// [from, to] and the second it occurred; +Inf when it had no samples.
func (p *Probe) worstPerf(priority, from, to int) (float64, int) {
	series := p.perf[priority]
	worst, worstAt := math.Inf(1), 0
	for sec := from; sec <= to && sec <= len(series); sec++ {
		v := series[sec-1]
		if math.IsNaN(v) {
			continue // priority had no servers this second
		}
		if v < worst {
			worst, worstAt = v, sec
		}
	}
	return worst, worstAt
}

// Evaluate runs every assertion in the file against the finished run and
// returns the structured report.
func Evaluate(f *File, s *sim.Simulator, tracker *slo.Tracker, p *Probe) *RunReport {
	rep := &RunReport{Scenario: f.Name, DurationSec: f.Fleet.DurationSec}
	for i := range f.Assertions {
		res := evalOne(&f.Assertions[i], f, s, tracker, p)
		rep.Results = append(rep.Results, res)
		if res.Pass {
			rep.Passed++
		} else {
			rep.Failed++
		}
	}
	return rep
}

func evalOne(a *Assertion, f *File, s *sim.Simulator, tracker *slo.Tracker, p *Probe) AssertionResult {
	res := AssertionResult{Kind: a.Kind, Pass: true}
	fail := func(format string, args ...any) AssertionResult {
		res.Pass = false
		res.Error = fmt.Sprintf(format, args...)
		return res
	}
	switch a.Kind {
	case AssertNoTrips:
		res.Detail = "no breaker trips"
		if tripped := s.TrippedBreakers(); len(tripped) > 0 {
			return fail("breakers tripped: %s", strings.Join(tripped, ", "))
		}
	case AssertNoViolations:
		res.Detail = "no allocation invariant violations"
		if v := s.InvariantViolations(); len(v) > 0 {
			return fail("%d violations, first: %s", len(v), v[0])
		}
	case AssertFeasible:
		res.Detail = "all control periods feasible"
		if n := s.InfeasiblePeriods(); n > 0 {
			return fail("%d infeasible control periods", n)
		}
	case AssertThroughputFloor:
		from, to := a.window(p.duration)
		res.Detail = fmt.Sprintf("priority %d mean perf ≥ %.3f over [%d,%d]s", a.Priority, a.Min, from, to)
		worst, worstAt := p.worstPerf(a.Priority, from, to)
		if math.IsInf(worst, 1) {
			return fail("no samples in window")
		}
		if worst < a.Min {
			return fail("perf %.4f at t=%ds below floor %.4f", worst, worstAt, a.Min)
		}
	case AssertTimeToSafe:
		res.Detail = describeTTS(a)
		windows := tracker.ClosedWindows()
		for _, w := range windows {
			if a.MaxSec > 0 && w.DurationSec > a.MaxSec {
				return fail("window %v open %.1fs, max %.1fs", w.Causes, w.DurationSec, a.MaxSec)
			}
			if a.MinMargin > 0 && w.Margin() < a.MinMargin {
				return fail("window %v margin %.1f× below %.1f×", w.Causes, w.Margin(), a.MinMargin)
			}
		}
		if w := tracker.OpenWindow(); w != nil && a.MaxSec > 0 {
			return fail("window %v still open at end of run", w.Causes)
		}
	case AssertMaxTripRisk:
		res.Detail = fmt.Sprintf("peak trip risk ≤ %.2f", a.Max)
		if r := tracker.PeakRisk(); r > a.Max {
			return fail("peak trip risk %.3f above %.2f", r, a.Max)
		}
	case AssertBudgetsMatchOracle:
		res.Detail = "applied budgets match refalloc oracle"
		if err := CheckOracle(s); err != nil {
			return fail("%v", err)
		}
	case AssertNodePower:
		from, to := a.window(p.duration)
		res.Detail = fmt.Sprintf("node %s load in [%.0f,%s] W over [%d,%d]s", a.Node, a.MinWatts, maxWattsLabel(a.MaxWatts), from, to)
		series := p.nodes[a.Node]
		sampled := false
		for sec := from; sec <= to && sec <= len(series); sec++ {
			sampled = true
			v := series[sec-1]
			if a.MaxWatts > 0 && v > a.MaxWatts {
				return fail("load %.1f W at t=%ds above %.1f W", v, sec, a.MaxWatts)
			}
			if v < a.MinWatts {
				return fail("load %.1f W at t=%ds below %.1f W", v, sec, a.MinWatts)
			}
		}
		if !sampled {
			return fail("no samples in window")
		}
	case AssertExposureWindows:
		res.Detail = fmt.Sprintf("exactly %d exposure windows", a.Exactly)
		if n := int(tracker.WindowsClosed()); n != a.Exactly {
			return fail("%d windows closed, want %d", n, a.Exactly)
		}
		if w := tracker.OpenWindow(); w != nil && !a.AllowOpen {
			return fail("window %v still open at end of run", w.Causes)
		}
	default:
		return fail("unknown assertion kind")
	}
	return res
}

func describeTTS(a *Assertion) string {
	switch {
	case a.MaxSec > 0 && a.MinMargin > 0:
		return fmt.Sprintf("every exposure closes ≤ %.0fs with margin ≥ %.0f×", a.MaxSec, a.MinMargin)
	case a.MaxSec > 0:
		return fmt.Sprintf("every exposure closes ≤ %.0fs", a.MaxSec)
	default:
		return fmt.Sprintf("every exposure margin ≥ %.0f×", a.MinMargin)
	}
}

func maxWattsLabel(w float64) string {
	if w == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.0f", w)
}

// CheckOracle re-derives the most recent control period's budgets with
// the naive refalloc reference over the exact trees the simulator
// allocated from — operator overlays applied, failed feeds pruned — and
// demands watt-for-watt agreement with the allocation the simulator
// actually applied. This is the differential oracle from the fuzzing
// battery aimed at a live simulator.
func CheckOracle(s *sim.Simulator) error {
	trees, budgets, feeds := s.LastControlTrees()
	if len(trees) == 0 {
		return fmt.Errorf("no control period has run")
	}
	var (
		ref []*refalloc.Result
		err error
	)
	if s.SPOEnabled() {
		ref, _, err = refalloc.AllocateWithSPO(trees, budgets, s.Policy())
	} else {
		ref, err = refalloc.AllocateAll(trees, budgets, s.Policy())
	}
	if err != nil {
		return fmt.Errorf("reference allocator: %v", err)
	}
	for i, feed := range feeds {
		got := s.LastAllocation(feed)
		if got == nil {
			return fmt.Errorf("feed %s: no applied allocation", feed)
		}
		if err := diffAllocation(got, ref[i]); err != nil {
			return fmt.Errorf("feed %s: %v", feed, err)
		}
	}
	return nil
}
