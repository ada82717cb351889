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
	"sort"
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
	// in-process caller copies before its next gather wave (each tier runs
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

// PeriodStats summarizes one room-worker control period.
type PeriodStats struct {
	GatherErrors int
	ApplyErrors  int
	// BudgetsHeld counts racks whose budget push was withheld this period:
	// racks that have never reported a summary, and racks whose last
	// summary is older than the staleness bound.
	BudgetsHeld int
	RacksServed int
	Elapsed     time.Duration
	// Fleet is the period's merged fleet digest reduced to its headline
	// numbers (zero value when digests are off or before the first
	// rollup).
	Fleet fleetobs.DigestSummary
}

// holdReason explains why a rack's budget push was withheld.
type holdReason string

const (
	holdNeverSeen holdReason = "never-gathered"
	holdStale     holdReason = "stale-summary"
)

// RoomWorker protects the upper levels of the power hierarchy. Its tree's
// proxy nodes stand in for rack workers; the map connects proxy node IDs to
// their transports.
//
// Failure semantics: a rack whose gather has never succeeded is never
// pushed a budget — the room either excludes it from allocation (default)
// or reserves a configurable failsafe budget for it (WithFailsafeBudget).
// A rack that has reported before keeps its last summary when gathers
// fail, so the room keeps accounting for its load; once its summary is
// older than the staleness bound (WithStalenessBound) its budget pushes
// are held too, freezing the rack at its last applied budget instead of
// steering it from unboundedly stale state.
type RoomWorker struct {
	policy core.Policy
	budget power.Watts
	racks  map[string]RackClient

	log            *slog.Logger
	met            roomMetrics
	budgetLogDelta power.Watts
	stalenessBound int
	failsafe       power.Watts
	recorder       *flightrec.Recorder
	slo            *slo.Tracker

	// runMu serializes control periods and guards the tree and the
	// per-period scratch below: only a running period writes proxy
	// summaries and runs the allocation engine.
	runMu   sync.Mutex
	tree    *core.Node
	proxies map[string]*core.Node
	engine  *core.Allocator

	// Fan-out machinery, reused every period so steady-state periods stay
	// allocation-free in the control plane itself (the engine snapshot is
	// the one remaining O(tree) allocation per period). One engine serves
	// both waves: a period's push starts only after its allocation, which
	// is the last reader of the gather wave's call slots.
	fan      *fanEngine
	rackList []string // sorted rack IDs: deterministic wave order
	fresh    map[string]core.Summary
	failed   map[string]error
	hold     map[string]holdReason

	// Fleet observability rollup (see internal/fleetobs): dm folds the
	// gather wave's per-rack digests into one fleet digest per period.
	// digests gates the whole plane; history backs /debug/fleet/history.
	digests bool
	dm      digestMerger
	history *fleetobs.History

	// mu guards the observable state below and is never held across rack
	// RPCs, so Healthy, LastStats, and LastAllocation return immediately
	// even while a period's network calls are in flight.
	mu          sync.Mutex
	lastAlloc   *core.Allocation
	lastStats   PeriodStats
	periods     uint64
	rackDown    map[string]bool        // racks whose last gather failed
	rackStale   map[string]int         // consecutive stale periods per rack
	rackSeen    map[string]bool        // racks with at least one good gather
	rackHeld    map[string]bool        // racks whose pushes are being held
	rackBudgets map[string]power.Watts // last budget pushed per rack
	pubFleet    fleetobs.StatDigest    // latest merged fleet digest
	fleetWaves  uint64                 // rollups performed (0 = none yet)
	fleetTime   time.Time              // when the latest rollup happened
}

// NewRoomWorker creates a room worker. tree is the upper control tree
// (contractual root, transformers, RPPs) whose proxy nodes' IDs appear as
// keys in racks. budget is the contractual budget for this tree; zero uses
// the tree constraint.
func NewRoomWorker(tree *core.Node, budget power.Watts, policy core.Policy, racks map[string]RackClient, opts ...Option) (*RoomWorker, error) {
	if tree == nil {
		return nil, errors.New("controlplane: nil room tree")
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("controlplane: room tree: %w", err)
	}
	proxies := make(map[string]*core.Node)
	tree.Walk(func(n *core.Node) {
		if n.Proxy != nil {
			proxies[n.ID] = n
		}
	})
	if len(proxies) == 0 {
		return nil, errors.New("controlplane: room tree has no rack proxies")
	}
	for id := range racks {
		if _, ok := proxies[id]; !ok {
			return nil, fmt.Errorf("controlplane: rack client %q has no proxy node", id)
		}
	}
	for id := range proxies {
		if _, ok := racks[id]; !ok {
			return nil, fmt.Errorf("controlplane: proxy node %q has no rack client", id)
		}
	}
	engine, err := core.NewAllocator(tree)
	if err != nil {
		return nil, fmt.Errorf("controlplane: room tree: %w", err)
	}
	o := buildOptions(opts)
	rackIDs := make([]string, 0, len(racks))
	for id := range racks {
		rackIDs = append(rackIDs, id)
	}
	sort.Strings(rackIDs)
	w := &RoomWorker{
		tree:           tree,
		budget:         budget,
		policy:         policy,
		racks:          racks,
		proxies:        proxies,
		engine:         engine,
		fan:            newFanEngine(newLimiter(o.rpcConcurrency), len(racks)),
		rackList:       rackIDs,
		fresh:          make(map[string]core.Summary, len(racks)),
		failed:         make(map[string]error, len(racks)),
		hold:           make(map[string]holdReason, len(racks)),
		log:            o.log,
		met:            newRoomMetrics(o.reg, rackIDs),
		budgetLogDelta: o.budgetLogDelta,
		stalenessBound: o.stalenessBound,
		failsafe:       o.failsafeBudget,
		recorder:       o.recorder,
		slo:            o.slo,
		rackDown:       make(map[string]bool, len(racks)),
		rackStale:      make(map[string]int, len(racks)),
		rackSeen:       make(map[string]bool, len(racks)),
		rackHeld:       make(map[string]bool, len(racks)),
		rackBudgets:    make(map[string]power.Watts, len(racks)),
		digests:        o.digests == nil || *o.digests,
	}
	if w.digests {
		w.history = fleetobs.NewHistory(o.fleetHistory)
		w.fan.digests = true
	}
	w.met.racks.Set(float64(len(racks)))
	w.met.budget.Set(float64(budget))
	w.met.unseenRacks.Set(float64(len(racks)))
	return w, nil
}

// failsafeSummary is the conservative stand-in for a rack that has never
// reported: the room reserves exactly b watts for it — floor (CapMin) and
// ceiling (Constraint) — without pretending to know anything about its
// load or priorities.
func failsafeSummary(b power.Watts) core.Summary {
	s := core.NewSummary()
	s.SetLevel(0, b, b, b)
	s.Constraint = b
	return s
}

// RunPeriod executes one full control period: gather summaries from all
// racks in parallel, allocate over the upper tree, and push budgets back in
// parallel. Racks that fail to respond keep their previous budgets; their
// proxies keep the last summary so the room still protects its own limits.
// Racks that have never responded, or whose summaries exceed the staleness
// bound, have their budget pushes held (see the RoomWorker failure
// semantics). No lock observable from Healthy, LastStats, or LastAllocation
// is held while RPCs are in flight; concurrent RunPeriod calls serialize.
//
// A context cancelled before or during the gather phase aborts the period
// with ctx's error without recording rack failures — a shutdown is not a
// rack outage.
func (w *RoomWorker) RunPeriod(ctx context.Context) (*core.Allocation, PeriodStats, error) {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, PeriodStats{}, err
	}
	start := time.Now()
	stats := PeriodStats{RacksServed: len(w.racks)}
	if w.log != nil {
		w.log.Debug("control period start", "racks", len(w.racks))
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

	if err := w.gatherPhase(ctx, pt, root.ID(), &stats); err != nil {
		// Cancelled mid-gather (typically clean shutdown): the per-rack
		// context errors carry no signal about rack health, and no period
		// record is written — a shutdown is not a period.
		return nil, stats, err
	}
	alloc := w.allocPhase(pt, root.ID(), &stats)
	w.pushPhase(ctx, pt, root.ID(), alloc, &stats)
	stats.Elapsed = time.Since(start)

	// Publish the completed period: stats commit, trace record, SLO
	// evaluation, and end-of-period logging.
	w.commitPeriod(alloc, stats)
	root.End(nil)
	w.recordPeriod(pt, start, stats, alloc)
	w.evalSLO()
	w.met.budget.Set(float64(w.budget))
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

// gatherPhase runs one gather wave over all racks — bounded concurrency,
// batched where the transport allows, no lock held across RPCs — and
// sorts the outcomes into the reused fresh/failed scratch maps. It
// returns ctx's error when the wave was cancelled; gather metrics are
// only recorded for completed waves.
func (w *RoomWorker) gatherPhase(ctx context.Context, pt *flightrec.PeriodTrace, rootID string, stats *PeriodStats) error {
	start := time.Now()
	gatherSpan := pt.StartSpan("gather", "room", rootID)
	e := w.fan
	e.reset()
	for _, id := range w.rackList {
		e.add(id, w.racks[id])
	}
	e.gatherWave(ctx, pt, gatherSpan.ID())
	gatherSpan.End(nil)
	clear(w.fresh)
	clear(w.failed)
	for i := range e.calls {
		c := &e.calls[i]
		if c.err != nil {
			w.failed[c.id] = c.err
		} else {
			w.fresh[c.id] = c.summary
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stats.GatherErrors = len(w.failed)
	w.met.gatherSeconds.ObserveSince(start)
	w.met.gatherErrors.Add(float64(stats.GatherErrors))
	return nil
}

// allocPhase commits the gather outcomes (filling the reused hold map),
// folds the fleet digest from the gather wave's call slots into
// stats.Fleet, installs fresh summaries into the proxies, and runs the
// budgeting phase on the persistent engine.
func (w *RoomWorker) allocPhase(pt *flightrec.PeriodTrace, rootID string, stats *PeriodStats) *core.Allocation {
	w.commitGather(w.fresh, w.failed)
	w.buildFleetDigest(stats)

	// Failed racks keep their previous summary; never-seen racks keep
	// their construction-time summary or the failsafe reservation.
	for id, s := range w.fresh {
		*w.proxies[id].Proxy = s
	}
	if w.failsafe > 0 {
		for id, reason := range w.hold {
			if reason == holdNeverSeen {
				*w.proxies[id].Proxy = failsafeSummary(w.failsafe)
			}
		}
	}

	allocStart := time.Now()
	allocSpan := pt.StartSpan("allocate", "room", rootID)
	w.engine.SetExplainSink(pt.ExplainSink())
	w.engine.Run(w.budget, w.policy)
	w.engine.SetExplainSink(nil)
	alloc := w.engine.Snapshot()
	allocSpan.End(nil)
	w.met.allocateSeconds.ObserveSince(allocStart)
	return alloc
}

// buildFleetDigest folds the gather wave's per-rack digests into the
// period's fleet rollup and publishes it. It runs from allocPhase — after
// commitGather, and before the push wave resets the fan engine's call
// slots it reads. Racks whose digest did not travel (digest-less
// transports) are synthesized from their gathered summary and last pushed
// budget, so the rollup stays watt-for-watt complete either way; racks
// that failed this period's gather are counted as gather errors and, when
// riding stale summaries, flagged as stale outliers rather than summed
// from stale watts.
func (w *RoomWorker) buildFleetDigest(stats *PeriodStats) {
	if !w.digests {
		return
	}
	w.dm.reset()
	var own fleetobs.LevelStats
	own.Workers = len(w.racks)
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.fan.calls {
		c := &w.fan.calls[i]
		if c.err != nil {
			own.GatherErrors++
			continue
		}
		b, haveB := w.rackBudgets[c.id]
		w.dm.note(c.id, c.digest, &c.summary, b, haveB)
		own.GatherLatency.Observe(fleetobs.LatencyBounds, c.elapsed.Seconds())
	}
	own.Held = len(w.hold)
	for id, n := range w.rackStale {
		if n > 0 && w.rackSeen[id] {
			own.Stale++
		}
	}
	fleet := w.dm.fold(own)
	// Stale racks are an observer-side judgment — a rack never reports
	// itself stale — so their outlier entries are added after the fold.
	for id, n := range w.rackStale {
		if n > 0 && w.rackSeen[id] {
			fleet.AddOutlier(fleetobs.Outlier{
				Rack:         id,
				Reason:       fleetobs.ReasonStale,
				Score:        2 + float64(n),
				StalePeriods: n,
			})
		}
	}
	w.pubFleet.CopyFrom(fleet)
	stats.Fleet = fleet.Summary()
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
}

// pushPhase runs one push wave — bounded, batched, no lock across RPCs —
// skipping racks held by the last commitGather and pushing each other
// rack its share of alloc.
func (w *RoomWorker) pushPhase(ctx context.Context, pt *flightrec.PeriodTrace, rootID string, alloc *core.Allocation, stats *PeriodStats) {
	start := time.Now()
	pushSpan := pt.StartSpan("push", "room", rootID)
	e := w.fan
	e.reset()
	for _, id := range w.rackList {
		c := e.add(id, w.racks[id])
		if _, held := w.hold[id]; held {
			c.skip = true
			stats.BudgetsHeld++
			w.met.heldPushes.Inc()
			continue
		}
		c.budget = alloc.NodeBudgets[id]
	}
	e.pushWave(ctx, pt, pushSpan.ID())
	for i := range e.calls {
		if c := &e.calls[i]; !c.skip && c.err != nil {
			stats.ApplyErrors++
		}
	}
	w.notePushedBudgets(e.calls)
	pushSpan.End(nil)
	w.met.pushSeconds.ObserveSince(start)
	w.met.applyErrors.Add(float64(stats.ApplyErrors))
}

// commitGather records the period's gather outcomes under mu — staleness
// counters, down/recovered and held/resumed transitions — and refills the
// reused hold map with the racks whose budget pushes are held this
// period, keyed by reason.
func (w *RoomWorker) commitGather(fresh map[string]core.Summary, failed map[string]error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, err := range failed {
		w.rackStale[id]++
		w.met.staleByRack[id].Set(float64(w.rackStale[id]))
		if !w.rackDown[id] {
			w.rackDown[id] = true
			if w.log != nil {
				w.log.Warn("rack gather failed", "rack", id, "err", err)
			}
		}
	}
	for id := range fresh {
		w.rackSeen[id] = true
		if w.rackDown[id] {
			w.rackDown[id] = false
			if w.log != nil {
				w.log.Info("rack recovered", "rack", id, "stale_periods", w.rackStale[id])
			}
		}
		if w.rackStale[id] != 0 {
			w.rackStale[id] = 0
			w.met.staleByRack[id].Set(0)
		}
	}
	hold := w.hold
	clear(hold)
	unseen := 0
	for id := range w.racks {
		switch {
		case !w.rackSeen[id]:
			hold[id] = holdNeverSeen
			unseen++
		case w.stalenessBound > 0 && w.rackStale[id] > w.stalenessBound:
			hold[id] = holdStale
		}
	}
	w.met.unseenRacks.Set(float64(unseen))
	for id := range w.racks {
		_, held := hold[id]
		switch {
		case held && !w.rackHeld[id]:
			w.rackHeld[id] = true
			if w.log != nil {
				w.log.Warn("rack budget held", "rack", id, "reason", string(hold[id]))
			}
		case !held && w.rackHeld[id]:
			w.rackHeld[id] = false
			if w.log != nil {
				w.log.Info("rack budget pushes resumed", "rack", id)
			}
		}
	}
}

// commitPeriod publishes the period's results under mu. It runs on every
// completed period, however degraded, so the periods counter and the
// last-period stats never go stale while things break.
func (w *RoomWorker) commitPeriod(alloc *core.Allocation, stats PeriodStats) {
	w.mu.Lock()
	w.lastAlloc = alloc
	w.lastStats = stats
	w.periods++
	w.mu.Unlock()
	w.met.periods.Inc()
}

// recordPeriod writes one completed period into the flight recorder.
// Periods aborted by context cancellation are never recorded.
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
		rec.Fleet = &flightrec.FleetNote{
			Racks:              stats.Fleet.Racks,
			PowerWatts:         stats.Fleet.PowerWatts,
			BudgetWatts:        stats.Fleet.BudgetWatts,
			HeadroomWatts:      stats.Fleet.HeadroomWatts,
			WorstHeadroomWatts: stats.Fleet.WorstHeadroomWatts,
			WorstHeadroomRack:  stats.Fleet.WorstHeadroomRack,
			ViolatingRacks:     stats.Fleet.ViolatingRacks,
			OutlierRacks:       stats.Fleet.OutlierRacks,
		}
	}
	w.recorder.Add(rec)
}

// evalSLO runs one alert-engine evaluation against the period just
// recorded, feeding the tracker every rack's staleness counter. It runs
// after recordPeriod so alert transitions annotate the current period's
// flight-recorder record. Nil tracker no-ops.
func (w *RoomWorker) evalSLO() {
	if w.slo == nil {
		return
	}
	w.mu.Lock()
	samples := make([]slo.Sample, 0, len(w.racks))
	for id := range w.racks {
		samples = append(samples, slo.Sample{
			Signal: slo.SignalRackStalePeriods,
			Label:  id,
			Value:  float64(w.rackStale[id]),
		})
	}
	w.mu.Unlock()
	w.slo.EvalPeriod(w.slo.Uptime(), samples...)
}

// notePushedBudgets records the budgets a push wave delivered — held
// racks and failed pushes keep their last pushed value — updating the
// per-rack gauges and logging changes larger than the configured delta.
func (w *RoomWorker) notePushedBudgets(calls []fanCall) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range calls {
		c := &calls[i]
		if c.skip || c.err != nil {
			continue
		}
		id, b := c.id, c.budget
		prev, seen := w.rackBudgets[id]
		if w.log != nil && seen && math.Abs(float64(b-prev)) > float64(w.budgetLogDelta) {
			w.log.Info("rack budget changed", "rack", id,
				"old", float64(prev), "new", float64(b))
		}
		w.rackBudgets[id] = b
		w.met.budgetByRack[id].Set(float64(b))
	}
}

// Run executes control periods on the given cadence until the context is
// cancelled, reporting each period's stats to onPeriod (may be nil). A
// period aborted by cancellation is not reported — shutdown produces no
// spurious rack-failure stats.
func (w *RoomWorker) Run(ctx context.Context, period time.Duration, onPeriod func(PeriodStats, error)) {
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		if ctx.Err() != nil {
			return
		}
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
func (w *RoomWorker) LastAllocation() *core.Allocation {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastAlloc
}

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
	if !w.digests || w.fleetWaves == 0 {
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
func (w *RoomWorker) FleetHistory() *fleetobs.History {
	return w.history
}

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
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]RackFreshness, len(w.racks))
	for id := range w.racks {
		out[id] = RackFreshness{
			StalePeriods: w.rackStale[id],
			EverGathered: w.rackSeen[id],
			Held:         w.rackHeld[id],
			LastBudget:   w.rackBudgets[id],
		}
	}
	return out
}

// Healthy reports the room worker's health for a /healthz endpoint: nil
// while the control plane can still see at least one rack. It returns an
// error once a completed control period gathered zero fresh rack
// summaries — the plane is then flying blind on stale data. With fleet
// digests on (the default) it answers for the whole subtree: it reads the
// lowest level row of the last merged fleet digest, so racks failing
// behind aggregators that still answer count too. With digests off it
// sees only the room's own children. Before the first period the worker
// reports healthy (starting up). It never blocks on in-flight rack RPCs.
func (w *RoomWorker) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.periods == 0 {
		return nil
	}
	served, failed := w.lastStats.RacksServed, w.lastStats.GatherErrors
	if w.digests && len(w.pubFleet.Levels) > 0 {
		row := &w.pubFleet.Levels[0]
		served, failed = row.Workers, row.GatherErrors
	}
	if served > 0 && failed >= served {
		return fmt.Errorf("all %d rack gathers failed last control period", served)
	}
	return nil
}

// Degraded reports reduced-but-serving conditions for a warn-level
// /healthz check: nil while every rack is fresh, an error when some
// racks are stale or their budget pushes are held while the room can
// still see at least one rack. (When the room sees nothing at all,
// Healthy reports that — a critical condition, not a degraded one.) With
// fleet digests on it counts the whole subtree, summing the stale and
// held counts of every level row of the last merged fleet digest; with
// digests off it counts only the room's own children. Before the first
// period the worker reports undegraded (starting up). It never blocks on
// in-flight rack RPCs.
func (w *RoomWorker) Degraded() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.periods == 0 {
		return nil
	}
	stale, held := 0, 0
	if w.digests {
		for i := range w.pubFleet.Levels {
			stale += w.pubFleet.Levels[i].Stale
			held += w.pubFleet.Levels[i].Held
		}
	} else {
		for id := range w.racks {
			if w.rackStale[id] > 0 && w.rackSeen[id] {
				stale++
			}
			if w.rackHeld[id] {
				held++
			}
		}
	}
	if stale == 0 && held == 0 {
		return nil
	}
	return fmt.Errorf("%d rack(s) on stale summaries, %d held", stale, held)
}
