// Package slo turns the paper's safety argument into continuously
// measured numbers. CapMaestro is safe because server power capping acts
// an order of magnitude faster than breaker trip times (Section 2.1): a
// feed failure overloads the surviving feed, capping sheds the excess,
// and the breakers never accumulate enough heat to open. This package
// measures exactly that margin at runtime:
//
//   - Time-to-safe tracking. Every supply fault or budget cut opens an
//     exposure window; the window closes when every affected node's
//     measured power is back under budget and no breaker is overloaded.
//     The window duration, normalized against the breaker's timeToTrip at
//     the worst observed overload, is the paper's "10×" claim as a live
//     distribution (histogram + worst-ratio gauge).
//
//   - Trip-risk scoring. Each supply feed carries a gauge in [0, 1]
//     derived from the breaker thermal model's accumulated heat
//     (breaker.RiskSnapshot): 0 is cold, 1 is tripped.
//
//   - An alert-rule engine with threshold + for-duration + deadband
//     semantics (see engine.go), stdlib-only like the telemetry registry.
//     Firing/resolved transitions are annotated onto the flight
//     recorder's current period and counted in /metrics.
//
// The package follows the repo-wide nil-safety contract: a nil *Tracker
// no-ops on every method, so the simulator, room worker, and capping
// controller instrument themselves unconditionally.
//
// Time is supplied by the caller as a time.Duration since an arbitrary
// epoch (simulated seconds in internal/sim, wall-clock uptime in the
// control plane), which keeps the tracker deterministic under test.
package slo

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"capmaestro/internal/flightrec"
	"capmaestro/internal/telemetry"
)

// MarginCap bounds the time-to-safe margin reported when a window never
// saw an overload (time-to-trip is effectively infinite) or closed
// instantaneously. Keeping the value finite keeps JSON encodable and
// threshold rules well-behaved.
const MarginCap = 1e9

// DefaultMaxClosedWindows is the ring capacity for retained closed
// exposure windows when Config.MaxClosedWindows is zero.
const DefaultMaxClosedWindows = 128

// Window is one exposure window: the span between a fault (or budget
// cut) and the fleet being measurably safe again.
type Window struct {
	// Causes lists the distinct fault causes folded into the window
	// (e.g. "feed-fail:B", "budget-cut:A"), in arrival order.
	Causes []string `json:"causes"`
	// OpenedSec / ClosedSec are seconds since the tracker's epoch.
	OpenedSec float64 `json:"opened_sec"`
	ClosedSec float64 `json:"closed_sec,omitempty"`
	Open      bool    `json:"open"`
	// DurationSec is the exposure time (closed − opened).
	DurationSec float64 `json:"duration_sec"`
	// MinTimeToTripSec is the smallest cold-start timeToTrip observed on
	// any overloaded breaker while the window was open; 0 means no
	// breaker was ever overloaded during the window.
	MinTimeToTripSec float64 `json:"min_time_to_trip_sec,omitempty"`
	// PeakRisk is the highest trip-risk score seen during the window.
	PeakRisk float64 `json:"peak_risk"`
	// Ratio is DurationSec / MinTimeToTripSec — the fraction of the
	// breaker's thermal budget the exposure consumed. 0 when no overload
	// was observed; values approaching 1 mean a breaker nearly tripped.
	Ratio float64 `json:"ratio"`
}

// Margin is the safety margin of the window: how many times over the
// exposure could have lasted before the breaker tripped. Capped at
// MarginCap when no overload was observed or the window closed
// instantly.
func (w Window) Margin() float64 {
	if w.Ratio <= 0 {
		return MarginCap
	}
	return math.Min(1/w.Ratio, MarginCap)
}

// Config assembles a Tracker. Every field is optional: a zero Config
// yields a tracker with the default rules and no telemetry.
type Config struct {
	// Rules for the alert engine; nil selects DefaultRules.
	Rules []Rule
	// Registry receives the slo_* metric families (nil disables).
	Registry *telemetry.Registry
	// Recorder receives firing/resolved alert annotations on the current
	// period record (nil disables).
	Recorder *flightrec.Recorder
	// Logger for alert transitions (nil disables).
	Logger *slog.Logger
	// MaxClosedWindows bounds the retained closed-window ring
	// (DefaultMaxClosedWindows when zero).
	MaxClosedWindows int
}

// Tracker is the safety-SLO bookkeeper. Construct with New; a nil
// *Tracker no-ops on every method.
type Tracker struct {
	eng        *engine
	rec        *flightrec.Recorder
	log        *slog.Logger
	maxClosed  int
	wallStart  time.Time
	mu         sync.Mutex
	open       *Window
	closed     []Window
	closedTot  uint64
	faults     uint64
	worstRatio float64
	peakRisk   float64
	risk       map[string]float64 // per feed, latest score
	tripped    map[string]bool    // feeds whose risk hit 1
	feeds      []string           // EvalPeriod's buffers, reused under mu
	samples    []Sample

	metTTS        *telemetry.Histogram
	metWorstRatio *telemetry.Gauge
	metOpen       *telemetry.Gauge
	metRisk       *telemetry.GaugeVec
	metFaults     *telemetry.Counter
	metClosed     *telemetry.Counter
	metActive     *telemetry.Gauge
	metTrans      *telemetry.CounterVec
}

// TimeToSafeBuckets are the histogram bounds (seconds) for exposure
// durations: capping should close windows within one or two control
// periods, so the resolution is concentrated under a minute.
var TimeToSafeBuckets = []float64{1, 2, 4, 8, 16, 30, 60, 120, 300}

// New builds a Tracker. The only error source is an invalid rule.
func New(cfg Config) (*Tracker, error) {
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	eng, err := newEngine(rules)
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		eng:       eng,
		rec:       cfg.Recorder,
		log:       cfg.Logger,
		maxClosed: cfg.MaxClosedWindows,
		wallStart: time.Now(),
		risk:      make(map[string]float64),
		tripped:   make(map[string]bool),
	}
	if t.maxClosed <= 0 {
		t.maxClosed = DefaultMaxClosedWindows
	}
	reg := cfg.Registry
	if reg == nil {
		// A private registry keeps the histogram (and so the quantile
		// estimator on /debug/slo) working when the caller exports no
		// metrics.
		reg = telemetry.NewRegistry()
	}
	t.metTTS = reg.Histogram("capmaestro_slo_time_to_safe_seconds",
		"Exposure window durations: seconds from a supply fault or budget cut until measured power is back under budget.",
		TimeToSafeBuckets)
	t.metWorstRatio = reg.Gauge("capmaestro_slo_time_to_safe_worst_ratio",
		"Worst observed exposure duration divided by the breaker's timeToTrip at the observed overload (1 = a breaker would have tripped).")
	t.metOpen = reg.Gauge("capmaestro_slo_exposure_open",
		"1 while an exposure window is open, 0 otherwise.")
	t.metRisk = reg.GaugeVec("capmaestro_slo_trip_risk",
		"Per-feed breaker trip risk: accumulated heat over the trip threshold, in [0, 1].", "feed")
	t.metFaults = reg.Counter("capmaestro_slo_faults_total",
		"Supply faults and budget cuts that opened or extended an exposure window.")
	t.metClosed = reg.Counter("capmaestro_slo_windows_closed_total",
		"Exposure windows closed (time-to-safe samples recorded).")
	t.metActive = reg.Gauge("capmaestro_slo_alerts_active",
		"Alert rules currently firing.")
	t.metTrans = reg.CounterVec("capmaestro_slo_alert_transitions_total",
		"Alert state transitions by rule and new state (firing or resolved).", "rule", "state")
	return t, nil
}

// Uptime returns elapsed wall time since New, for callers that track SLO
// time against the wall clock rather than a simulation. 0 on nil.
func (t *Tracker) Uptime() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.wallStart)
}

// RecordFault opens an exposure window at now, or folds cause into the
// already-open window. Cause strings are deduplicated per window.
func (t *Tracker) RecordFault(now time.Duration, cause string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults++
	t.metFaults.Inc()
	if t.open == nil {
		t.open = &Window{Causes: []string{cause}, OpenedSec: now.Seconds(), Open: true}
		t.metOpen.Set(1)
		if t.log != nil {
			t.log.Info("slo: exposure window opened", "cause", cause, "at_sec", now.Seconds())
		}
		return
	}
	for _, c := range t.open.Causes {
		if c == cause {
			return
		}
	}
	t.open.Causes = append(t.open.Causes, cause)
}

// ObserveExposure advances the open window (if any) with this instant's
// safety verdict. safe reports whether every node's measured power is
// back under budget and no breaker is overloaded; timeToTrip is the
// smallest cold-start trip time across currently overloaded breakers
// (0 when none are overloaded). Call once per evaluation tick.
func (t *Tracker) ObserveExposure(now time.Duration, safe bool, timeToTrip time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.open
	if w == nil {
		return
	}
	if !safe {
		if ttt := timeToTrip.Seconds(); ttt > 0 && (w.MinTimeToTripSec == 0 || ttt < w.MinTimeToTripSec) {
			w.MinTimeToTripSec = ttt
		}
		return
	}
	w.Open = false
	w.ClosedSec = now.Seconds()
	w.DurationSec = w.ClosedSec - w.OpenedSec
	if w.DurationSec < 0 {
		w.DurationSec = 0
	}
	if w.MinTimeToTripSec > 0 {
		w.Ratio = w.DurationSec / w.MinTimeToTripSec
	}
	t.open = nil
	t.closed = append(t.closed, *w)
	if len(t.closed) > t.maxClosed {
		t.closed = t.closed[len(t.closed)-t.maxClosed:]
	}
	t.closedTot++
	if w.Ratio > t.worstRatio {
		t.worstRatio = w.Ratio
	}
	t.metTTS.Observe(w.DurationSec)
	t.metWorstRatio.Set(t.worstRatio)
	t.metOpen.Set(0)
	t.metClosed.Inc()
	if t.log != nil {
		t.log.Info("slo: exposure window closed",
			"causes", w.Causes, "duration_sec", w.DurationSec,
			"min_time_to_trip_sec", w.MinTimeToTripSec, "ratio", w.Ratio)
	}
}

// SetTripRisk records the trip-risk score for a feed (clamped to [0, 1])
// and folds it into the open window's peak. A score of 1 marks the feed
// as having tripped a breaker.
func (t *Tracker) SetTripRisk(feed string, risk float64) {
	if t == nil {
		return
	}
	risk = math.Max(0, math.Min(1, risk))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.risk[feed] = risk
	if risk >= 1 {
		t.tripped[feed] = true
	}
	if risk > t.peakRisk {
		t.peakRisk = risk
	}
	if t.open != nil && risk > t.open.PeakRisk {
		t.open.PeakRisk = risk
	}
	t.metRisk.With(feed).Set(risk)
}

// builtinSamples renders the tracker's own state as engine samples into
// t.samples, which callers extend with domain samples (rack staleness,
// cap-violation streaks). Caller must hold t.mu.
func (t *Tracker) builtinSamples() []Sample {
	samples := t.samples[:0]
	feeds := t.feeds[:0]
	for feed := range t.risk {
		feeds = append(feeds, feed)
	}
	sort.Strings(feeds)
	t.feeds = feeds
	for _, feed := range feeds {
		samples = append(samples, Sample{Signal: SignalTripRisk, Label: feed, Value: t.risk[feed]})
	}
	exposure := 0.0
	if t.open != nil && t.open.MinTimeToTripSec > 0 {
		exposure = 1
	}
	samples = append(samples, Sample{Signal: SignalExposureOverload, Value: exposure})
	margin := MarginCap
	if t.worstRatio > 0 {
		margin = math.Min(1/t.worstRatio, MarginCap)
	}
	samples = append(samples, Sample{Signal: SignalTimeToSafeMargin, Value: margin})
	return samples
}

// EvalPeriod runs one alert-engine evaluation at now: the tracker's
// built-in signals (trip_risk, exposure_overload, time_to_safe_margin)
// plus any extra domain samples supplied by the caller. Transitions are
// logged, annotated onto the flight recorder's current period, and
// counted; the returned slice is nil when nothing changed state.
func (t *Tracker) EvalPeriod(now time.Duration, extra ...Sample) []Transition {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.samples = append(t.builtinSamples(), extra...)
	trans := t.eng.eval(now.Seconds(), t.samples)
	active := t.eng.activeCount()
	t.mu.Unlock()

	t.metActive.Set(float64(active))
	for _, tr := range trans {
		t.metTrans.With(tr.Rule.Name, tr.State).Inc()
		t.rec.Annotate(flightrec.Annotation{
			Time: time.Now(),
			Kind: "alert-" + tr.State,
			Text: tr.String(),
		})
		if t.log != nil {
			level := slog.LevelInfo
			if tr.State == StateFiring {
				level = slog.LevelWarn
				if tr.Rule.Severity == SeverityCritical {
					level = slog.LevelError
				}
			}
			t.log.Log(nil, level, "slo: alert "+tr.State,
				"rule", tr.Rule.Name, "label", tr.Label,
				"signal", tr.Rule.Signal, "value", tr.Value, "at_sec", tr.AtSec)
		}
	}
	return trans
}

// ActiveAlert is one currently-firing rule instance.
type ActiveAlert struct {
	Rule     string  `json:"rule"`
	Label    string  `json:"label,omitempty"`
	Severity string  `json:"severity"`
	Value    float64 `json:"value"`
	SinceSec float64 `json:"since_sec"`
}

// ActiveAlerts returns the currently firing alerts, sorted by rule then
// label.
func (t *Tracker) ActiveAlerts() []ActiveAlert {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eng.active()
}

// Status rolls the active alerts up into a health level: Critical if any
// critical rule is firing, Warn if any rule at all is firing, OK
// otherwise.
func (t *Tracker) Status() telemetry.HealthLevel {
	if t == nil {
		return telemetry.HealthOK
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	level := telemetry.HealthOK
	for _, a := range t.eng.active() {
		if a.Severity == SeverityCritical {
			return telemetry.HealthCritical
		}
		level = telemetry.HealthWarn
	}
	return level
}

// HealthCheck adapts the tracker to telemetry.Server.AddLeveledCheck:
// the level is Status() and the message names the firing rules.
func (t *Tracker) HealthCheck() (telemetry.HealthLevel, string) {
	if t == nil {
		return telemetry.HealthOK, "ok"
	}
	t.mu.Lock()
	actives := t.eng.active()
	t.mu.Unlock()
	level := telemetry.HealthOK
	names := make([]string, 0, len(actives))
	for _, a := range actives {
		if a.Severity == SeverityCritical {
			level = telemetry.HealthCritical
		} else if level == telemetry.HealthOK {
			level = telemetry.HealthWarn
		}
		name := a.Rule
		if a.Label != "" {
			name += "{" + a.Label + "}"
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return telemetry.HealthOK, "no alerts firing"
	}
	return level, fmt.Sprintf("%d alert(s) firing: %v", len(names), names)
}

// OpenWindow returns a copy of the open exposure window, or nil.
func (t *Tracker) OpenWindow() *Window {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open == nil {
		return nil
	}
	w := *t.open
	w.Causes = append([]string(nil), t.open.Causes...)
	return &w
}

// ClosedWindows returns the retained closed windows, oldest first.
func (t *Tracker) ClosedWindows() []Window {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Window(nil), t.closed...)
}

// WorstRatio returns the largest duration/timeToTrip ratio across closed
// windows (0 = no overloaded exposure recorded yet).
func (t *Tracker) WorstRatio() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.worstRatio
}

// WorstMargin is 1/WorstRatio capped at MarginCap: the measured
// counterpart of the paper's "order of magnitude faster" claim.
func (t *Tracker) WorstMargin() float64 {
	if t == nil {
		return MarginCap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.worstRatio <= 0 {
		return MarginCap
	}
	return math.Min(1/t.worstRatio, MarginCap)
}

// PeakRisk returns the highest trip-risk score ever recorded.
func (t *Tracker) PeakRisk() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peakRisk
}

// TrippedFeeds returns the feeds whose trip risk reached 1, sorted.
func (t *Tracker) TrippedFeeds() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	feeds := make([]string, 0, len(t.tripped))
	for f := range t.tripped {
		feeds = append(feeds, f)
	}
	sort.Strings(feeds)
	return feeds
}

// FaultCount returns the number of RecordFault calls.
func (t *Tracker) FaultCount() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.faults
}

// WindowsClosed returns the total number of windows closed (including
// any that have fallen out of the retention ring).
func (t *Tracker) WindowsClosed() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closedTot
}

// TransitionCounts returns how often the named rule fired and resolved.
func (t *Tracker) TransitionCounts(rule string) (fired, resolved uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eng.transitionCounts(rule)
}

// TimeToSafeQuantile estimates the q-quantile of closed exposure-window
// durations in seconds from the backing histogram. NaN when the tracker
// has no registry or no closed windows.
func (t *Tracker) TimeToSafeQuantile(q float64) float64 {
	if t == nil {
		return math.NaN()
	}
	return t.metTTS.Quantile(q)
}
