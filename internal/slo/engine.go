package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Built-in signal names the Tracker evaluates every period. Callers add
// domain signals (rack_stale_periods, cap_violation_streak) as extra
// samples to EvalPeriod.
const (
	// SignalTripRisk is the per-feed breaker trip risk in [0, 1]; the
	// sample label is the feed name.
	SignalTripRisk = "trip_risk"
	// SignalExposureOverload is 1 while an exposure window with an
	// observed breaker overload is open, 0 otherwise.
	SignalExposureOverload = "exposure_overload"
	// SignalTimeToSafeMargin is the worst measured time-to-safe margin
	// (1/ratio, capped at MarginCap while no overloaded window has
	// closed).
	SignalTimeToSafeMargin = "time_to_safe_margin"
	// SignalRackStalePeriods counts consecutive periods a rack's budget
	// has been held on stale state; the label is the rack ID. Supplied by
	// the room worker.
	SignalRackStalePeriods = "rack_stale_periods"
	// SignalCapViolationStreak counts consecutive capping iterations a
	// server spent above its budget (plus tolerance); the label is the
	// server ID. Supplied by the simulator.
	SignalCapViolationStreak = "cap_violation_streak"
)

// Alert severities.
const (
	SeverityWarn     = "warn"
	SeverityCritical = "critical"
)

// Alert states carried by Transition.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Rule is one alert rule: fire when Signal Op Threshold holds for
// ForPeriods consecutive evaluations, resolve once the value crosses
// back past the threshold by more than Deadband. The semantics mirror a
// Prometheus alerting rule's expr + for, with an explicit deadband so a
// value oscillating around the threshold cannot flap the alert.
type Rule struct {
	Name   string `json:"name"`
	Signal string `json:"signal"`
	// Op is one of ">", ">=", "<", "<=".
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// ForPeriods is how many consecutive evaluations the predicate must
	// hold before the rule fires (0 and 1 both mean "immediately").
	ForPeriods int `json:"for_periods,omitempty"`
	// Deadband widens the resolve condition: a firing rule resolves only
	// when the value is past the threshold by more than this much on the
	// safe side.
	Deadband float64 `json:"deadband,omitempty"`
	// Severity is "warn" or "critical" (empty defaults to "warn").
	Severity string `json:"severity,omitempty"`
}

// Validate reports whether the rule is well-formed, normalizing the
// defaulted fields in place.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo: rule with empty name")
	}
	if r.Signal == "" {
		return fmt.Errorf("slo: rule %q has no signal", r.Name)
	}
	switch r.Op {
	case ">", ">=", "<", "<=":
	default:
		return fmt.Errorf("slo: rule %q has invalid op %q (want >, >=, <, <=)", r.Name, r.Op)
	}
	if r.ForPeriods < 0 {
		return fmt.Errorf("slo: rule %q has negative for_periods", r.Name)
	}
	if r.ForPeriods == 0 {
		r.ForPeriods = 1
	}
	if r.Deadband < 0 {
		return fmt.Errorf("slo: rule %q has negative deadband", r.Name)
	}
	switch r.Severity {
	case "":
		r.Severity = SeverityWarn
	case SeverityWarn, SeverityCritical:
	default:
		return fmt.Errorf("slo: rule %q has invalid severity %q (want warn or critical)", r.Name, r.Severity)
	}
	return nil
}

// breached reports whether the value is on the alerting side of the
// threshold.
func (r *Rule) breached(v float64) bool {
	switch r.Op {
	case ">":
		return v > r.Threshold
	case ">=":
		return v >= r.Threshold
	case "<":
		return v < r.Threshold
	default: // "<="
		return v <= r.Threshold
	}
}

// cleared reports whether the value is past the threshold by more than
// the deadband on the safe side, allowing a firing alert to resolve.
func (r *Rule) cleared(v float64) bool {
	switch r.Op {
	case ">":
		return v <= r.Threshold-r.Deadband
	case ">=":
		return v < r.Threshold-r.Deadband
	case "<":
		return v >= r.Threshold+r.Deadband
	default: // "<="
		return v > r.Threshold+r.Deadband
	}
}

// DefaultRules returns the built-in rule set — the paper's safety
// invariants phrased as alerts, plus control-plane hygiene:
//
//   - trip-risk: a breaker has consumed half its thermal trip budget
//     and is still accumulating (critical);
//   - time-to-safe-margin: capping closed an exposure window with less
//     than 5× margin against the breaker trip curve — the 10× design
//     claim has eroded (critical);
//   - feed-exposure: an overloaded exposure window is open (warn —
//     capping is expected to close it within a couple of periods);
//   - rack-stale: a rack has run on held budgets for 3+ consecutive
//     periods (warn);
//   - cap-violation-streak: a server has sat above budget for 3+
//     consecutive capping iterations (warn).
func DefaultRules() []Rule {
	return []Rule{
		{Name: "trip-risk", Signal: SignalTripRisk, Op: ">", Threshold: 0.5,
			ForPeriods: 2, Deadband: 0.1, Severity: SeverityCritical},
		{Name: "time-to-safe-margin", Signal: SignalTimeToSafeMargin, Op: "<", Threshold: 5,
			ForPeriods: 1, Severity: SeverityCritical},
		{Name: "feed-exposure", Signal: SignalExposureOverload, Op: ">", Threshold: 0.5,
			ForPeriods: 1, Severity: SeverityWarn},
		{Name: "rack-stale", Signal: SignalRackStalePeriods, Op: ">=", Threshold: 3,
			ForPeriods: 1, Severity: SeverityWarn},
		{Name: "cap-violation-streak", Signal: SignalCapViolationStreak, Op: ">=", Threshold: 3,
			ForPeriods: 1, Severity: SeverityWarn},
	}
}

// LoadRules decodes a JSON array of rules, rejecting unknown fields and
// validating each rule.
func LoadRules(r io.Reader) ([]Rule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rules []Rule
	if err := dec.Decode(&rules); err != nil {
		return nil, fmt.Errorf("slo: decode rules: %w", err)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: rules file is empty")
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// LoadRulesFile is LoadRules over a file path.
func LoadRulesFile(path string) ([]Rule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("slo: open rules: %w", err)
	}
	defer f.Close()
	return LoadRules(f)
}

// Sample is one (signal, label, value) observation handed to the
// engine. Label distinguishes instances of a signal (feed, rack,
// server); unlabeled signals leave it empty.
type Sample struct {
	Signal string
	Label  string
	Value  float64
}

// Transition is one alert state change produced by an evaluation.
type Transition struct {
	Rule  Rule    `json:"rule"`
	Label string  `json:"label,omitempty"`
	State string  `json:"state"` // StateFiring or StateResolved
	Value float64 `json:"value"`
	AtSec float64 `json:"at_sec"`
}

// String renders the transition for logs and flight-recorder
// annotations.
func (tr Transition) String() string {
	name := tr.Rule.Name
	if tr.Label != "" {
		name += "{" + tr.Label + "}"
	}
	return fmt.Sprintf("%s %s: %s %s %g (value %.4g)",
		name, tr.State, tr.Rule.Signal, tr.Rule.Op, tr.Rule.Threshold, tr.Value)
}

// RuleState is the engine's per-(rule, label) bookkeeping, exposed for
// /debug/slo.
type RuleState struct {
	Rule     Rule    `json:"rule"`
	Label    string  `json:"label,omitempty"`
	Firing   bool    `json:"firing"`
	Streak   int     `json:"streak"`
	Value    float64 `json:"value"`
	SinceSec float64 `json:"since_sec,omitempty"`
	Fired    uint64  `json:"fired"`
	Resolved uint64  `json:"resolved"`
}

type ruleState struct {
	rule     *Rule
	label    string
	firing   bool
	streak   int
	value    float64
	sinceSec float64
	fired    uint64
	resolved uint64
}

// engine evaluates rules against per-period samples. Not itself
// concurrency-safe; the Tracker serializes access under its mutex.
type engine struct {
	rules  []Rule
	states map[stateKey]*ruleState
	order  []stateKey // in creation order, for stable output
}

// stateKey names one rule's state for one label.
type stateKey struct{ rule, label string }

func newEngine(rules []Rule) (*engine, error) {
	e := &engine{states: make(map[stateKey]*ruleState)}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		e.rules = append(e.rules, r)
	}
	return e, nil
}

// eval advances every rule against the samples and returns the state
// transitions. A signal absent from this evaluation leaves its states
// untouched: firing alerts stay firing (the condition cannot be shown
// clear) and pending streaks freeze rather than reset on a gap.
func (e *engine) eval(nowSec float64, samples []Sample) []Transition {
	var trans []Transition
	for i := range e.rules {
		rule := &e.rules[i]
		for _, s := range samples {
			if s.Signal != rule.Signal {
				continue
			}
			key := stateKey{rule.Name, s.Label}
			st, ok := e.states[key]
			if !ok {
				st = &ruleState{rule: rule, label: s.Label}
				e.states[key] = st
				e.order = append(e.order, key)
			}
			st.value = s.Value
			switch {
			case rule.breached(s.Value):
				if st.firing {
					break
				}
				st.streak++
				if st.streak >= rule.ForPeriods {
					st.firing = true
					st.sinceSec = nowSec
					trans = append(trans, Transition{
						Rule: *rule, Label: s.Label, State: StateFiring,
						Value: s.Value, AtSec: nowSec,
					})
					st.fired++
				}
			case st.firing:
				// Firing and no longer breached: resolve only once the
				// value clears the deadband; inside the band the alert
				// holds (anti-flap).
				if rule.cleared(s.Value) {
					st.firing = false
					st.streak = 0
					st.sinceSec = 0
					trans = append(trans, Transition{
						Rule: *rule, Label: s.Label, State: StateResolved,
						Value: s.Value, AtSec: nowSec,
					})
					st.resolved++
				}
			default:
				st.streak = 0
			}
		}
	}
	return trans
}

// active returns the firing states as ActiveAlerts, sorted by rule then
// label.
func (e *engine) active() []ActiveAlert {
	var out []ActiveAlert
	for _, key := range e.order {
		st := e.states[key]
		if !st.firing {
			continue
		}
		out = append(out, ActiveAlert{
			Rule:     st.rule.Name,
			Label:    st.label,
			Severity: st.rule.Severity,
			Value:    st.value,
			SinceSec: st.sinceSec,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Label < out[j].Label
	})
	return out
}

func (e *engine) activeCount() int {
	n := 0
	for _, st := range e.states {
		if st.firing {
			n++
		}
	}
	return n
}

// stateList snapshots every per-(rule, label) state, sorted.
func (e *engine) stateList() []RuleState {
	out := make([]RuleState, 0, len(e.order))
	for _, key := range e.order {
		st := e.states[key]
		out = append(out, RuleState{
			Rule:     *st.rule,
			Label:    st.label,
			Firing:   st.firing,
			Streak:   st.streak,
			Value:    st.value,
			SinceSec: st.sinceSec,
			Fired:    st.fired,
			Resolved: st.resolved,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule.Name != out[j].Rule.Name {
			return out[i].Rule.Name < out[j].Rule.Name
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// transitionCounts sums fired/resolved across every label of the rule.
func (e *engine) transitionCounts(rule string) (fired, resolved uint64) {
	for _, st := range e.states {
		if st.rule.Name == rule {
			fired += st.fired
			resolved += st.resolved
		}
	}
	return fired, resolved
}
