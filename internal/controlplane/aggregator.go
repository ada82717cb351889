package controlplane

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
)

// Aggregator is the control plane's one tier type, enabling the
// "arbitrary arrangement of a multi-level worker hierarchy" the paper's
// implementation supports (Section 5): it gathers its children's
// summaries, holds what it cannot trust, and pushes budgets down. Toward
// its parent it behaves like a rack worker (gather a summary, accept a
// budget), so a large data center can stack aggregators — e.g. room → row
// → rack — without any level seeing more than its direct children's
// summaries. A RoomWorker is the root of the stack: one Aggregator over
// the room tree, driven with a fixed budget. BuildHierarchy stacks them
// automatically from a flat rack set.
//
// Failure semantics: a child whose gather has never succeeded is never
// pushed a budget — the tier either excludes it from allocation (default)
// or reserves a failsafe budget for it (WithFailsafeBudget). A child whose
// gather fails keeps its previous summary, so the tier keeps accounting
// for its load; once that summary is older than the staleness bound
// (WithStalenessBound) its pushes are held too, freezing the child at its
// last applied budget instead of steering it from unboundedly stale
// state. A gather cancelled through its context is not a child outage:
// the pass returns the context's error and commits nothing. Per-child
// gather and push error counts surface through LastStats and telemetry,
// not just logs.
type Aggregator struct {
	policy         core.Policy
	clients        map[string]RackClient
	log            *slog.Logger
	met            tierMetrics
	stalenessBound int
	failsafe       power.Watts
	// level labels the tier's own row in the fleet digest; 0 (the room)
	// stacks it on top of the rows its children sent.
	level   int
	digests bool

	// runMu is the pass lock, held for a whole pass (by a room, for a whole
	// period), I/O included. It guards everything down to mu; the
	// accessors never take it.
	runMu     sync.Mutex
	tree      *core.Node
	proxies   map[string]*core.Node
	engine    *core.Allocator
	fan       *fanEngine
	childList []string    // sorted child IDs: deterministic wave order
	children  []childView // each child's state, in childList order
	// fleet is the digest a gather folds and returns, valid until the next
	// gather; self is the scratch for a child that sent none.
	fleet, self fleetobs.StatDigest
	// gauge deltas: same-level aggregators share instruments
	lastUnseen, lastStale int

	// mu guards the observable state below.
	mu         sync.Mutex
	lastBudget power.Watts
	lastAlloc  *core.Allocation
	lastStats  PeriodStats
	view       []childView // children as the last pass published them
}

// childView is one child's state as the tier's passes leave it.
type childView struct {
	stale    int  // consecutive failed gathers (> 0: down)
	seen     bool // at least one good gather
	held     bool // pushes held by the last gather: never seen, or too stale
	pushedOK bool // some push succeeded; pushed is the last one's budget
	pushed   power.Watts
}

// NewAggregator creates a mid-level worker over the given subtree, whose
// proxy nodes stand for the downstream workers in clients. Options
// configure telemetry (labeled by WithHierarchyLevel), logging, staleness
// bound, failsafe budget, and RPC concurrency, exactly as on a room
// worker.
func NewAggregator(tree *core.Node, policy core.Policy, clients map[string]RackClient, opts ...Option) (*Aggregator, error) {
	o := buildOptions(opts)
	level := max(o.level, 1)
	return newTier("aggregator", tree, policy, clients, o, level, newLevelMetrics(o.reg, level))
}

// newTier validates tree against clients and builds a tier over them;
// kind names the tier in errors.
func newTier(kind string, tree *core.Node, policy core.Policy, clients map[string]RackClient, o options, level int, met tierMetrics) (*Aggregator, error) {
	if tree == nil {
		return nil, fmt.Errorf("controlplane: nil %s tree", kind)
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("controlplane: %s tree: %w", kind, err)
	}
	proxies := make(map[string]*core.Node)
	tree.Walk(func(n *core.Node) {
		if n.Proxy != nil {
			proxies[n.ID] = n
		}
	})
	if len(proxies) == 0 {
		return nil, fmt.Errorf("controlplane: %s tree has no proxies", kind)
	}
	for id := range clients {
		if _, ok := proxies[id]; !ok {
			return nil, fmt.Errorf("controlplane: %s client %q has no proxy node", kind, id)
		}
	}
	for id := range proxies {
		if _, ok := clients[id]; !ok {
			return nil, fmt.Errorf("controlplane: %s proxy node %q has no client", kind, id)
		}
	}
	engine, err := core.NewAllocator(tree)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %s tree: %w", kind, err)
	}
	childList := make([]string, 0, len(clients))
	for id := range clients {
		childList = append(childList, id)
	}
	sort.Strings(childList)
	a := &Aggregator{
		policy:         policy,
		clients:        clients,
		log:            o.log,
		met:            met,
		stalenessBound: o.stalenessBound,
		failsafe:       o.failsafeBudget,
		level:          level,
		digests:        o.digests == nil || *o.digests,
		tree:           tree,
		proxies:        proxies,
		engine:         engine,
		fan:            newFanEngine(newLimiter(o.rpcConcurrency), len(clients)),
		childList:      childList,
		lastUnseen:     len(childList),
		children:       make([]childView, len(childList)),
		view:           make([]childView, len(childList)),
	}
	a.fan.digests = a.digests
	a.met.unseen.Add(float64(len(childList)))
	return a, nil
}

// failsafeSummary is the conservative stand-in for a child that has never
// reported: the tier reserves exactly b watts for it — floor (CapMin) and
// ceiling (Constraint) — without pretending to know anything about its
// load or priorities.
func failsafeSummary(b power.Watts) core.Summary {
	s := core.NewSummary()
	s.SetLevel(0, b, b, b)
	s.Constraint = b
	return s
}

// ID returns the aggregator's identifier (its subtree root's node ID).
func (a *Aggregator) ID() string { return a.tree.ID }

// Gather implements RackClient: it collects fresh summaries from the
// downstream workers — bounded concurrency, batched where the transport
// allows — installs them into the proxies, and reports the combined
// subtree summary upstream. Downstream workers that fail keep their
// previous summaries; the failure count lands in LastStats.GatherErrors
// and the per-level error counter.
func (a *Aggregator) Gather(ctx context.Context) (core.Summary, error) {
	s, _, err := a.GatherDigest(ctx)
	return s, err
}

// GatherDigest implements DigestGatherer: one gather pass that also folds
// the children's fleet digests into a single subtree digest. Children that
// sent no digest (digest-less transports) are synthesized from their
// summaries and last pushed budgets, so the rollup covers every child
// that gathered successfully either way. The returned digest points into
// per-aggregator scratch and is valid until the next gather pass.
func (a *Aggregator) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	if err := ctx.Err(); err != nil {
		return core.Summary{}, nil, err
	}
	pt := flightrec.TraceFrom(ctx)
	span := pt.StartSpan("agg.gather", a.tree.ID, flightrec.ParentIDFrom(ctx))
	_, dig, err := a.gather(ctx, pt, span.ID())
	span.End(err)
	if err != nil {
		return core.Summary{}, nil, err
	}
	return a.engine.Summarize(a.policy), dig, nil
}

// gather runs one gather wave under the span parentID and commits it,
// returning the tier's own level row and, with digests on, the fold. A
// wave whose context ended returns the context's error and commits
// nothing: its per-child errors say nothing about the children.
func (a *Aggregator) gather(ctx context.Context, pt *flightrec.PeriodTrace, parentID string) (fleetobs.LevelStats, *fleetobs.StatDigest, error) {
	start := time.Now()
	e := a.fan
	e.reset()
	for _, id := range a.childList {
		e.add(id, a.clients[id])
	}
	e.gatherWave(ctx, pt, parentID)
	if err := ctx.Err(); err != nil {
		return fleetobs.LevelStats{}, nil, err
	}
	own := a.commitGather(e, start)
	var dig *fleetobs.StatDigest
	if a.digests {
		dig = a.foldDigest(e, own)
	}
	a.met.gatherSeconds.ObserveSince(start)
	a.met.gatherErrors.Add(float64(own.GatherErrors))
	return own, dig, nil
}

// commitGather records a wave's outcomes child by child, in childList
// order, then publishes the view and the gather half of LastStats. It
// returns the tier's own digest row, without latencies.
func (a *Aggregator) commitGather(e *fanEngine, start time.Time) fleetobs.LevelStats {
	own := fleetobs.LevelStats{Level: a.level, Workers: len(a.childList)}
	unseen := 0
	for i := range e.calls {
		c, v := &e.calls[i], &a.children[i]
		if c.err != nil {
			own.GatherErrors++
			if v.stale == 0 && a.log != nil {
				a.log.Warn("child gather failed", "tier", a.tree.ID, "child", c.id, "err", c.err)
			}
			v.stale++
		} else {
			*a.proxies[c.id].Proxy = c.summary
			if v.stale > 0 && a.log != nil {
				a.log.Info("child recovered", "tier", a.tree.ID, "child", c.id, "stale_periods", v.stale)
			}
			v.stale, v.seen = 0, true
		}
		wasHeld := v.held
		v.held = !v.seen || a.stalenessBound > 0 && v.stale > a.stalenessBound
		if !v.seen {
			unseen++
			if a.failsafe > 0 {
				*a.proxies[c.id].Proxy = failsafeSummary(a.failsafe)
			}
		} else if v.stale > 0 {
			own.Stale++
		}
		if v.held {
			own.Held++
		}
		if v.held != wasHeld && a.log != nil {
			switch {
			case !v.held:
				a.log.Info("child budget pushes resumed", "tier", a.tree.ID, "child", c.id)
			case v.seen:
				a.log.Warn("child budget held", "tier", a.tree.ID, "child", c.id, "reason", "stale-summary")
			default:
				a.log.Warn("child budget held", "tier", a.tree.ID, "child", c.id, "reason", "never-gathered")
			}
		}
	}
	a.mu.Lock()
	copy(a.view, a.children)
	a.lastStats = PeriodStats{
		RacksServed:  len(a.childList),
		GatherErrors: own.GatherErrors,
		Elapsed:      time.Since(start),
	}
	a.mu.Unlock()
	staleHeld := own.Held - unseen
	a.met.unseen.Add(float64(unseen - a.lastUnseen))
	a.met.staleHeld.Add(float64(staleHeld - a.lastStale))
	a.lastUnseen, a.lastStale = unseen, staleHeld
	return own
}

// foldDigest merges the wave's child digests in childList order, so float
// rounding is the same every time, synthesizing one from the summary and
// last pushed budget for a child that sent none; then it stamps the
// tier's own row and the stale children as outliers. The children's
// digests are read in place: each stays valid until that child's next
// gather, which comes after this fold.
func (a *Aggregator) foldDigest(e *fanEngine, own fleetobs.LevelStats) *fleetobs.StatDigest {
	a.fleet.Reset()
	for i := range e.calls {
		c := &e.calls[i]
		if c.err != nil {
			continue
		}
		d := c.digest
		if d == nil {
			v := &a.children[i]
			rackSelfDigest(&a.self, c.id, &c.summary, v.pushed, v.pushedOK)
			d = &a.self
		}
		a.fleet.Merge(d)
		own.GatherLatency.Observe(fleetobs.LatencyBounds, c.elapsed.Seconds())
	}
	if own.Level == 0 {
		own.Level = a.fleet.NextLevel()
	}
	a.fleet.AddLevel(&own)
	// Staleness is the observer's judgment, not the child's.
	for i := range a.children {
		if v := &a.children[i]; v.stale > 0 && v.seen {
			a.fleet.AddOutlier(fleetobs.Outlier{
				Rack:         a.childList[i],
				Reason:       fleetobs.ReasonStale,
				Score:        2 + float64(v.stale),
				StalePeriods: v.stale,
			})
		}
	}
	return &a.fleet
}

// allocate runs the budgeting phase for b on the persistent engine.
func (a *Aggregator) allocate(pt *flightrec.PeriodTrace, b power.Watts) *core.Allocation {
	start := time.Now()
	a.engine.SetExplainSink(pt.ExplainSink())
	a.engine.Run(b, a.policy)
	a.engine.SetExplainSink(nil)
	alloc := a.engine.Snapshot()
	a.met.allocateSeconds.ObserveSince(start)
	return alloc
}

// push pushes, under the span parentID, every child not held (nor unseen,
// before the first gather) its share of alloc, then publishes alloc, the
// view and the apply half of LastStats. It returns the first push error.
func (a *Aggregator) push(ctx context.Context, pt *flightrec.PeriodTrace, parentID string, alloc *core.Allocation) error {
	start := time.Now()
	e := a.fan
	e.reset()
	held := 0
	for i, id := range a.childList {
		c := e.add(id, a.clients[id])
		if v := &a.children[i]; v.held || !v.seen {
			c.skip = true
			held++
			a.met.heldPushes.Inc()
			continue
		}
		c.budget = alloc.NodeBudgets[id]
	}
	e.pushWave(ctx, pt, parentID)
	applyErrors := 0
	var firstErr error
	for i := range e.calls {
		switch c := &e.calls[i]; {
		case c.skip:
		case c.err != nil:
			applyErrors++
			if firstErr == nil {
				firstErr = c.err
			}
		default:
			a.children[i].pushed, a.children[i].pushedOK = c.budget, true
		}
	}
	a.mu.Lock()
	copy(a.view, a.children)
	a.lastAlloc = alloc
	a.lastStats.ApplyErrors = applyErrors
	a.lastStats.BudgetsHeld = held
	a.mu.Unlock()
	a.met.pushSeconds.ObserveSince(start)
	a.met.applyErrors.Add(float64(applyErrors))
	return firstErr
}

// ApplyBudget implements RackClient: it allocates the received budget over
// its subtree on the persistent engine and pushes each downstream worker
// its share — bounded, batched, skipping held children. Held children
// (never gathered, or stale beyond the bound) keep whatever budget they
// already enforce; their count lands in LastStats.BudgetsHeld. The first
// push error is returned so the parent's apply accounting sees the
// failure; the full count lands in LastStats.ApplyErrors.
func (a *Aggregator) ApplyBudget(ctx context.Context, b power.Watts) error {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	pt := flightrec.TraceFrom(ctx)
	span := pt.StartSpan("agg.apply", a.tree.ID, flightrec.ParentIDFrom(ctx))
	err := a.push(ctx, pt, span.ID(), a.allocate(pt, b))
	span.End(err)
	a.mu.Lock()
	a.lastBudget = b
	a.lastStats.Elapsed += time.Since(start)
	st := a.lastStats
	a.mu.Unlock()
	if a.log != nil && (st.ApplyErrors > 0 || st.BudgetsHeld > 0) {
		a.log.Warn("aggregator apply degraded", "aggregator", a.tree.ID,
			"apply_errors", st.ApplyErrors, "budgets_held", st.BudgetsHeld)
	}
	return err
}

// LastBudget returns the budget most recently received from upstream.
func (a *Aggregator) LastBudget() power.Watts {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastBudget
}

// LastAllocation returns the most recent subtree allocation.
func (a *Aggregator) LastAllocation() *core.Allocation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastAlloc
}

// LastStats returns the combined statistics of the aggregator's most
// recent gather and apply passes: GatherErrors and RacksServed from the
// last Gather, ApplyErrors and BudgetsHeld from the last ApplyBudget, and
// Elapsed summing both passes. The zero value before the first gather.
func (a *Aggregator) LastStats() PeriodStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastStats
}
