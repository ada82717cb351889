// Package controlplane implements CapMaestro as a control-plane service
// (Section 5 of the paper): the shifting and capping controllers are
// grouped into workers — rack-level workers that protect their rack's CDUs
// and manage the rack's capping controllers, and a room-level worker that
// protects RPPs, transformers, and the contractual budget.
//
// Every control period the room worker gathers priority-grouped metric
// summaries from the rack workers, runs the budgeting phase over its upper
// tree (where each rack appears as a proxy node carrying only its
// summary), and pushes each rack its budget; rack workers then distribute
// their budget down to individual power supplies. Workers communicate
// through a RackClient transport: in-process for single-binary
// deployments, or a binary protocol over TCP (see transport.go) matching
// the paper's worker-VM deployment.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/slo"
)

// BudgetSink receives the final per-supply budgets a rack worker computes;
// implementations forward them to the servers' capping controllers.
type BudgetSink func(supplyID string, budget power.Watts)

// RackWorker owns the control subtree for one rack (typically the CDU-level
// shifting controllers and the rack's capping-controller endpoints) and
// budgets it on a persistent core.Allocator, so a steady-state period
// costs a pass over the rack's leaves and allocates only the summary it
// returns.
//
// The tree belongs to the caller, who may edit it in place between calls
// (never during one) without telling the worker. Every Gather and
// ApplyBudget therefore reads the leaves afresh and first applies
// core.Node.Validate's per-node checks to them, failing the call with
// Validate's error; an edit that changed the tree's shape or a limit
// rebinds the engine to the edited tree, as SetTree would. Nothing is
// carried from one call to the next but the engine's scratch.
type RackWorker struct {
	id     string
	policy core.Policy

	// mu guards everything below. The engines are only ever touched under
	// it: a pass rewrites the scratch LastAllocation reads.
	mu     sync.Mutex
	tree   *core.Node
	engine *core.Allocator
	// spare is the engine SetTree binds to the incoming tree before the
	// two trade places, so that a swap costs no more than validating and
	// flattening the tree — a caller refreshing demand through SetTree
	// every period leaves no garbage and finds both engines warm — and
	// the outgoing engine goes on holding the last allocation.
	spare *core.Allocator
	sink  BudgetSink

	lastBudget power.Watts
	// lastAlloc is the most recent ApplyBudget's allocation once somebody
	// has asked for it; until then it sits in the budget slots of allocIn,
	// the engine that ran it, and is materialized on demand or when that
	// engine is about to be rebound (see materialize).
	lastAlloc *core.Allocation
	allocIn   *core.Allocator

	log            *slog.Logger
	met            rackMetrics
	budgetLogDelta power.Watts
	budgetSeen     bool

	// dig is the worker's reusable self-digest scratch; GatherDigest
	// rewrites it under mu each call and hands out a pointer, which the
	// in-process caller folds before its next gather wave (each tier runs
	// one wave at a time, so the two never overlap).
	dig fleetobs.StatDigest
}

// NewRackWorker creates a rack worker for the given local subtree, which
// is validated here and stays the caller's (see RackWorker).
func NewRackWorker(id string, tree *core.Node, policy core.Policy, sink BudgetSink, opts ...Option) (*RackWorker, error) {
	if id == "" {
		return nil, errors.New("controlplane: empty rack worker ID")
	}
	if tree == nil {
		return nil, errors.New("controlplane: nil rack subtree")
	}
	// Both engines are bound here, so that SetTree never builds one: the
	// worker's footprint is settled at construction instead of growing
	// with its first swaps.
	engine, spare := new(core.Allocator), new(core.Allocator)
	for _, e := range []*core.Allocator{engine, spare} {
		if err := e.Rebind(tree); err != nil {
			return nil, fmt.Errorf("controlplane: rack %s: %w", id, err)
		}
	}
	o := buildOptions(opts)
	return &RackWorker{
		id: id, policy: policy, tree: tree, engine: engine, spare: spare, sink: sink,
		log:            o.log,
		met:            newRackMetrics(o.reg, id),
		budgetLogDelta: o.budgetLogDelta,
	}, nil
}

// ID returns the worker's identifier.
func (w *RackWorker) ID() string { return w.id }

// SetTree atomically replaces the worker's subtree, validating it and
// binding an engine to it; an invalid tree leaves the worker on the tree
// and engine it had. Ownership is as for NewRackWorker: callers either
// swap in a refreshed tree with SetTree or edit the installed one in place
// between calls — the worker reads and checks leaf inputs every call and
// re-flattens on a shape change either way. Every SetTree validates and
// flattens its tree from scratch, whichever trees came before.
func (w *RackWorker) SetTree(tree *core.Node) error {
	if tree == nil {
		return errors.New("controlplane: nil rack subtree")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.rebind(w.spare, tree); err != nil {
		return err
	}
	w.tree = tree
	w.engine, w.spare = w.spare, w.engine
	return nil
}

// rebind points engine at tree, first settling the last allocation if it
// is engine's to lose. Callers hold mu.
func (w *RackWorker) rebind(engine *core.Allocator, tree *core.Node) error {
	if w.allocIn == engine {
		w.materialize()
	}
	return engine.Rebind(tree)
}

// refresh readies the engine for a pass over the caller-owned tree: the
// per-call input checks, and a rebind (validating in full, as SetTree
// does) when the tree was restructured in place.
func (w *RackWorker) refresh() error {
	err := w.engine.Recheck()
	if !errors.Is(err, core.ErrStale) {
		return err
	}
	return w.rebind(w.engine, w.tree)
}

// materialize turns the last ApplyBudget's pass into the map-based
// allocation LastAllocation hands out, if nobody has since.
func (w *RackWorker) materialize() {
	if w.allocIn != nil {
		w.lastAlloc = w.allocIn.Snapshot()
		w.allocIn = nil
	}
}

// summarize is the gather both Gather flavours share.
func (w *RackWorker) summarize() (core.Summary, error) {
	if err := w.refresh(); err != nil {
		return core.Summary{}, err
	}
	return w.engine.Summarize(w.policy), nil
}

// Gather computes the metric summary this rack reports upstream.
func (w *RackWorker) Gather(ctx context.Context) (core.Summary, error) {
	if err := ctx.Err(); err != nil {
		return core.Summary{}, err
	}
	span := flightrec.TraceFrom(ctx).StartSpan("rack.gather", w.id, flightrec.ParentIDFrom(ctx))
	w.mu.Lock()
	defer w.mu.Unlock()
	s, err := w.summarize()
	span.End(err)
	return s, err
}

// GatherDigest gathers the rack's summary plus its single-rack fleet
// observability digest, derived from the same snapshot under one lock so
// the two never disagree.
func (w *RackWorker) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	if err := ctx.Err(); err != nil {
		return core.Summary{}, nil, err
	}
	span := flightrec.TraceFrom(ctx).StartSpan("rack.gather", w.id, flightrec.ParentIDFrom(ctx))
	w.mu.Lock()
	defer w.mu.Unlock()
	s, err := w.summarize()
	span.End(err)
	if err != nil {
		return core.Summary{}, nil, err
	}
	rackSelfDigest(&w.dig, w.id, &s, w.lastBudget, w.budgetSeen)
	return s, &w.dig, nil
}

// ApplyBudget distributes the budget assigned by the room worker down the
// rack's subtree and forwards the per-supply budgets to the sink, in the
// tree's flattened (top-down, left-to-right) leaf order.
func (w *RackWorker) ApplyBudget(ctx context.Context, b power.Watts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pt := flightrec.TraceFrom(ctx)
	span := pt.StartSpan("rack.apply", w.id, flightrec.ParentIDFrom(ctx))
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.refresh()
	if err == nil {
		w.engine.SetExplainSink(pt.ExplainSink())
		w.engine.Run(b, w.policy)
		w.engine.SetExplainSink(nil)
	}
	span.End(err)
	if err != nil {
		w.met.applyErrors.Inc()
		if w.log != nil {
			w.log.Error("rack budget application failed", "rack", w.id, "budget", float64(b), "err", err)
		}
		return fmt.Errorf("controlplane: rack %s: %w", w.id, err)
	}
	if w.log != nil && w.budgetSeen &&
		math.Abs(float64(b-w.lastBudget)) > float64(w.budgetLogDelta) {
		w.log.Info("rack budget changed", "rack", w.id,
			"old", float64(w.lastBudget), "new", float64(b))
	}
	w.budgetSeen = true
	w.lastBudget = b
	w.allocIn = w.engine
	w.met.budget.Set(float64(b))
	w.met.applies.Inc()
	if w.sink != nil {
		w.engine.SupplyBudgets(w.sink)
	}
	return nil
}

// LastBudget returns the most recent budget received from upstream.
func (w *RackWorker) LastBudget() power.Watts {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastBudget
}

// LastAllocation returns the allocation of the most recent successful
// ApplyBudget (nil before the first), whatever SetTree has installed
// since. It is built on first request from the engine that ran it —
// reading node and supply IDs off the tree it ran on, which after a
// SetTree is the outgoing one, so as far as in-place edits go it is a
// call like any other on either tree — and a period nobody inspects
// never pays for the maps.
func (w *RackWorker) LastAllocation() *core.Allocation {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.materialize()
	return w.lastAlloc
}

// RackClient is the transport-facing interface of a rack worker. The room
// worker only ever exchanges summaries and budgets — never per-server
// state — which is what keeps the design scalable (Section 4.1).
type RackClient interface {
	Gather(ctx context.Context) (core.Summary, error)
	ApplyBudget(ctx context.Context, b power.Watts) error
}

// LocalClient adapts an in-process RackWorker to the RackClient interface.
type LocalClient struct{ Worker *RackWorker }

// Gather implements RackClient.
func (c LocalClient) Gather(ctx context.Context) (core.Summary, error) {
	return c.Worker.Gather(ctx)
}

// GatherDigest implements DigestGatherer.
func (c LocalClient) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	return c.Worker.GatherDigest(ctx)
}

// ApplyBudget implements RackClient.
func (c LocalClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	return c.Worker.ApplyBudget(ctx, b)
}

// PeriodStats summarizes one tier's control period — a room's, or an
// aggregator's last gather and apply passes — counting the tier's own
// children only.
type PeriodStats struct {
	GatherErrors int
	ApplyErrors  int
	// BudgetsHeld counts children whose budget push was withheld: never
	// gathered, or last gathered longer ago than the staleness bound.
	BudgetsHeld int
	RacksServed int
	Elapsed     time.Duration
	// Fleet is the merged fleet digest's headline numbers (zero when
	// digests are off or before the first rollup).
	Fleet fleetobs.DigestSummary
}

// RoomWorker protects the upper levels of the power hierarchy. It is the
// root of the tier stack: one Aggregator over the room tree, whose proxy
// nodes stand in for rack workers (or lower tiers), driven every period
// with the contractual budget, under the failure semantics documented on
// Aggregator. The room adds what only a root does: the period loop, the
// flight-recorder period trace, SLO evaluation, the fleet rollup, health,
// and per-rack telemetry.
type RoomWorker struct {
	tier           *Aggregator
	budget         power.Watts
	log            *slog.Logger
	met            roomMetrics
	budgetLogDelta power.Watts
	recorder       *flightrec.Recorder
	slo            *slo.Tracker
	history        *fleetobs.History // backs /debug/fleet/history; nil with digests off
	// prev is the tier's children as the last period left them, for the
	// budget-change log. A period holds the tier's runMu throughout.
	prev []childView
	// sloSamples is evalSLO's buffer, reused under the same runMu.
	sloSamples []slo.Sample

	// mu guards the observable state below and is never held across rack
	// RPCs, so Healthy, LastStats, and FleetReport return immediately even
	// while a period's network calls are in flight.
	mu         sync.Mutex
	lastStats  PeriodStats
	periods    uint64
	own        [1]fleetobs.LevelStats // the room's own row of the last period
	pubFleet   fleetobs.StatDigest    // latest merged fleet digest
	fleetWaves uint64                 // rollups performed (0 = none yet)
	fleetTime  time.Time              // when the latest rollup happened
}

// NewRoomWorker creates a room worker. tree is the upper control tree
// (contractual root, transformers, RPPs) whose proxy nodes' IDs appear as
// keys in racks. budget is the contractual budget for this tree; zero uses
// the tree constraint.
func NewRoomWorker(tree *core.Node, budget power.Watts, policy core.Policy, racks map[string]RackClient, opts ...Option) (*RoomWorker, error) {
	o := buildOptions(opts)
	tier, err := newTier("room", tree, policy, racks, o, 0, newRoomTierMetrics(o.reg))
	if err != nil {
		return nil, err
	}
	w := &RoomWorker{
		tier:           tier,
		budget:         budget,
		log:            o.log,
		met:            newRoomMetrics(o.reg, tier.childList),
		budgetLogDelta: o.budgetLogDelta,
		recorder:       o.recorder,
		slo:            o.slo,
		prev:           make([]childView, len(tier.childList)),
	}
	if tier.digests {
		w.history = fleetobs.NewHistory(o.fleetHistory)
	}
	w.met.racks.Set(float64(len(racks)))
	w.met.budget.Set(float64(budget))
	return w, nil
}

// RunPeriod executes one full control period: the tier gathers summaries
// from all racks in parallel, allocates the room budget over the upper
// tree, and pushes budgets back in parallel, holding what it cannot trust
// (see Aggregator). No lock observable from Healthy, LastStats, or
// LastAllocation is held while RPCs are in flight; concurrent RunPeriod
// calls serialize. A context cancelled before or during the gather aborts
// the period with ctx's error and records nothing — a shutdown is not a
// rack outage, and not a period.
func (w *RoomWorker) RunPeriod(ctx context.Context) (*core.Allocation, PeriodStats, error) {
	a := w.tier
	a.runMu.Lock()
	defer a.runMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, PeriodStats{}, err
	}
	start := time.Now()
	racks := len(a.childList)
	if w.log != nil {
		w.log.Debug("control period start", "racks", racks)
	}

	// With a flight recorder attached, the whole period runs under one
	// trace: a per-period root span, per-phase children, and one RPC span
	// per rack that the rack's own spans (shipped back over the transport)
	// nest under. All span calls no-op when pt is nil.
	var pt *flightrec.PeriodTrace
	if w.recorder.Enabled() {
		pt = flightrec.NewPeriodTrace()
	}
	root := pt.StartSpan("period", "room", "")
	span := pt.StartSpan("gather", "room", root.ID())
	own, fleet, err := a.gather(ctx, pt, span.ID())
	span.End(nil)
	if err != nil {
		return nil, PeriodStats{RacksServed: racks}, err
	}
	span = pt.StartSpan("allocate", "room", root.ID())
	alloc := a.allocate(pt, w.budget)
	span.End(nil)
	span = pt.StartSpan("push", "room", root.ID())
	a.push(ctx, pt, span.ID(), alloc)
	span.End(nil)

	stats := a.LastStats()
	stats.Elapsed = time.Since(start)
	w.mu.Lock()
	if fleet != nil {
		stats.Fleet = w.publishFleet(fleet, &own)
	}
	w.own[0] = own
	w.lastStats = stats
	w.periods++
	w.mu.Unlock()
	w.met.periods.Inc()
	w.noteRacks()
	root.End(nil)
	w.recordPeriod(pt, start, stats, alloc)
	w.evalSLO()
	if w.log != nil {
		if stats.GatherErrors > 0 || stats.ApplyErrors > 0 || stats.BudgetsHeld > 0 {
			w.log.Warn("control period end", "elapsed", stats.Elapsed,
				"gather_errors", stats.GatherErrors, "apply_errors", stats.ApplyErrors,
				"budgets_held", stats.BudgetsHeld)
		} else {
			w.log.Debug("control period end", "elapsed", stats.Elapsed)
		}
	}
	return alloc, stats, nil
}

// publishFleet publishes the tier's fleet rollup to FleetReport, the
// history ring and the fleet gauges, and returns its headline numbers.
// Callers hold mu.
func (w *RoomWorker) publishFleet(fleet *fleetobs.StatDigest, own *fleetobs.LevelStats) fleetobs.DigestSummary {
	w.pubFleet.CopyFrom(fleet)
	w.fleetWaves++
	w.fleetTime = time.Now()
	w.history.Append(fleetobs.Sample{
		Period:         w.fleetWaves,
		UnixMs:         w.fleetTime.UnixMilli(),
		PowerW:         fleet.PowerW,
		BudgetW:        fleet.BudgetW,
		HeadroomW:      fleet.HeadroomW,
		WorstHeadroomW: fleet.WorstHeadroomW,
		ViolatingRacks: fleet.ViolatingRacks,
		OutlierRacks:   len(fleet.Outliers),
		StaleRacks:     own.Stale,
		HeldRacks:      own.Held,
		GatherErrors:   own.GatherErrors,
	})
	w.met.fleetRacks.Set(float64(fleet.Racks))
	w.met.fleetPower.Set(fleet.PowerW)
	w.met.fleetHeadroom.Set(fleet.HeadroomW)
	w.met.fleetWorstHeadroom.Set(fleet.WorstHeadroomW)
	w.met.fleetViolating.Set(float64(fleet.ViolatingRacks))
	w.met.fleetOutliers.Set(float64(len(fleet.Outliers)))
	return fleet.Summary()
}

// noteRacks refreshes the per-rack gauges from the tier's children and logs
// each pushed budget that moved by more than the configured delta since
// the last period. Runs inside a period.
func (w *RoomWorker) noteRacks() {
	for i := range w.tier.children {
		v, prev := &w.tier.children[i], &w.prev[i]
		w.met.staleByRack[i].Set(float64(v.stale))
		if v.pushedOK {
			w.met.budgetByRack[i].Set(float64(v.pushed))
			if w.log != nil && prev.pushedOK && math.Abs(float64(v.pushed-prev.pushed)) > float64(w.budgetLogDelta) {
				w.log.Info("rack budget changed", "rack", w.tier.childList[i],
					"old", float64(prev.pushed), "new", float64(v.pushed))
			}
		}
		*prev = *v
	}
}

// recordPeriod writes one completed period into the flight recorder.
func (w *RoomWorker) recordPeriod(pt *flightrec.PeriodTrace, start time.Time, stats PeriodStats, alloc *core.Allocation) {
	if pt == nil {
		return
	}
	rec := flightrec.PeriodRecord{
		TraceID:      pt.TraceID(),
		Start:        start,
		Duration:     stats.Elapsed,
		Label:        "room",
		GatherErrors: stats.GatherErrors,
		ApplyErrors:  stats.ApplyErrors,
		BudgetsHeld:  stats.BudgetsHeld,
		Spans:        pt.Spans(),
		Explains:     pt.Explains(),
		Infeasible:   alloc.Infeasible,
	}
	if stats.Fleet.Racks > 0 {
		note := flightrec.FleetNote(stats.Fleet)
		rec.Fleet = &note
	}
	w.recorder.Add(rec)
}

// evalSLO feeds the tracker one alert-engine evaluation with every rack's
// staleness counter, in the tier's child order. It runs inside the period
// after recordPeriod, so alert transitions annotate the period's
// flight-recorder record. Nil tracker no-ops.
func (w *RoomWorker) evalSLO() {
	if w.slo == nil {
		return
	}
	w.sloSamples = w.sloSamples[:0]
	for i := range w.tier.children {
		w.sloSamples = append(w.sloSamples, slo.Sample{
			Signal: slo.SignalRackStalePeriods,
			Label:  w.tier.childList[i],
			Value:  float64(w.tier.children[i].stale),
		})
	}
	w.slo.EvalPeriod(w.slo.Uptime(), w.sloSamples...)
}

// Run executes control periods on the given cadence until the context is
// cancelled, reporting each period's stats to onPeriod (may be nil). A
// period aborted by cancellation is not reported — shutdown produces no
// spurious rack-failure stats.
func (w *RoomWorker) Run(ctx context.Context, period time.Duration, onPeriod func(PeriodStats, error)) {
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for ctx.Err() == nil {
		_, stats, err := w.RunPeriod(ctx)
		if ctx.Err() != nil {
			return
		}
		if onPeriod != nil {
			onPeriod(stats, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// LastAllocation returns the room's most recent upper-tree allocation.
func (w *RoomWorker) LastAllocation() *core.Allocation { return w.tier.LastAllocation() }

// LastStats returns the statistics of the most recent control period (the
// zero value before the first period).
func (w *RoomWorker) LastStats() PeriodStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastStats
}

// FleetReport returns the latest fleet digest rollup for the /debug/fleet
// endpoint. ok is false until the first gather wave completes, or always
// when digests are disabled.
func (w *RoomWorker) FleetReport() (fleetobs.Report, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fleetWaves == 0 {
		return fleetobs.Report{}, false
	}
	return fleetobs.Report{
		Period:  w.fleetWaves,
		Time:    w.fleetTime,
		Summary: w.pubFleet.Summary(),
		Fleet:   w.pubFleet.Clone(),
	}, true
}

// FleetHistory returns the per-period fleet sample ring backing
// /debug/fleet/history (nil when digests are disabled).
func (w *RoomWorker) FleetHistory() *fleetobs.History { return w.history }

// RackFreshness describes one rack's gather freshness, as reported in the
// /healthz detail body.
type RackFreshness struct {
	// StalePeriods counts consecutive control periods since the rack's
	// last successful gather (0 = fresh last period).
	StalePeriods int `json:"stale_periods"`
	// EverGathered reports whether any gather has ever succeeded.
	EverGathered bool `json:"ever_gathered"`
	// Held reports whether the rack's budget pushes are currently held.
	Held bool `json:"held"`
	// LastBudget is the budget most recently pushed to the rack.
	LastBudget power.Watts `json:"last_budget_watts"`
}

// RackFreshness returns per-rack freshness detail for health reporting.
// It never blocks on in-flight rack RPCs.
func (w *RoomWorker) RackFreshness() map[string]RackFreshness {
	a := w.tier
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]RackFreshness, len(a.view))
	for i, v := range a.view {
		out[a.childList[i]] = RackFreshness{StalePeriods: v.stale, EverGathered: v.seen, Held: v.held, LastBudget: v.pushed}
	}
	return out
}

// levels returns the level rows health is judged on: with fleet digests
// on (the default), every tier's row of the last merged fleet digest, so
// racks failing or held behind aggregators that still answer count too;
// with digests off, the room's own row only. Callers hold mu, after the
// first period.
func (w *RoomWorker) levels() []fleetobs.LevelStats {
	if w.tier.digests {
		return w.pubFleet.Levels
	}
	return w.own[:]
}

// Healthy reports the room worker's health for a /healthz endpoint: nil
// while the control plane can still see at least one rack, an error once
// a completed period gathered no fresh summary at the lowest level (see
// levels) — the plane is then flying blind on stale data. Before the first
// period the worker reports healthy (starting up). It never blocks on
// in-flight rack RPCs.
func (w *RoomWorker) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.periods == 0 {
		return nil
	}
	if row := &w.levels()[0]; row.Workers > 0 && row.GatherErrors >= row.Workers {
		return fmt.Errorf("all %d rack gathers failed last control period", row.Workers)
	}
	return nil
}

// Degraded reports reduced-but-serving conditions for a warn-level
// /healthz check: nil while every rack is fresh, an error when some racks
// (summed over levels) are stale or their budget pushes are held. A room
// that sees nothing at all is Healthy's concern, not a degraded one.
// Before the first period the worker reports undegraded (starting up). It
// never blocks on in-flight rack RPCs.
func (w *RoomWorker) Degraded() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.periods == 0 {
		return nil
	}
	stale, held := 0, 0
	for _, row := range w.levels() {
		stale += row.Stale
		held += row.Held
	}
	if stale == 0 && held == 0 {
		return nil
	}
	return fmt.Errorf("%d rack(s) on stale summaries, %d held", stale, held)
}
