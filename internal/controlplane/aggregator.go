package controlplane

import (
	"context"
	"errors"
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

// Aggregator is a mid-level worker, enabling the "arbitrary arrangement of
// a multi-level worker hierarchy" the paper's implementation supports
// (Section 5): toward its parent it behaves like a rack worker (gather a
// summary, accept a budget); toward its children it behaves like a room
// worker (collect summaries, distribute budgets). A large data center can
// stack aggregators — e.g. room → row → rack — without any level seeing
// more than its direct children's summaries. BuildHierarchy stacks them
// automatically from a flat rack set.
//
// Failure semantics mirror the room worker's: a child whose gather has
// never succeeded is never pushed a budget (optionally reserving a
// failsafe budget instead), a child whose gather fails keeps its previous
// summary, and a child stale beyond the staleness bound has its pushes
// held. Per-child gather and push error counts surface through LastStats
// and the per-level telemetry families, not just logs.
type Aggregator struct {
	policy  core.Policy
	clients map[string]RackClient

	log            *slog.Logger
	met            aggMetrics
	stalenessBound int
	failsafe       power.Watts
	level          int

	// digests enables the fleet observability rollup: each gather folds
	// the children's digests (or synthesized equivalents) into one subtree
	// digest handed upstream. dm is runMu-scoped scratch, reused every
	// pass; the digest GatherDigest returns points into it and stays valid
	// until the next gather, which the control plane's phase ordering
	// guarantees is after the parent has folded it.
	digests bool
	dm      digestMerger

	// runMu is the pass lock: it is held for a whole GatherDigest or
	// ApplyBudget pass, network I/O included, so the aggregator runs one
	// wave at a time, as the room does. It guards everything down to mu.
	// The accessors never take it: LastBudget, LastAllocation, and
	// LastStats only take mu, so they never wait on I/O.
	runMu     sync.Mutex
	tree      *core.Node
	proxies   map[string]*core.Node
	engine    *core.Allocator
	hold      map[string]holdReason
	fan       *fanEngine
	childList []string        // sorted child IDs: deterministic wave order
	seen      map[string]bool // children with at least one good gather
	down      map[string]bool // children whose last gather failed
	stale     map[string]int  // consecutive failed gathers per child
	// pushed holds, per child in childList order, the budget its last
	// successful push delivered; ok is false until one succeeds.
	pushed     []pushedBudget
	lastUnseen int // gauge deltas: same-level aggregators share instruments
	lastStale  int

	// mu guards the observable state below.
	mu         sync.Mutex
	lastBudget power.Watts
	lastAlloc  *core.Allocation
	lastStats  PeriodStats
}

// NewAggregator creates a mid-level worker over the given subtree, whose
// proxy nodes stand for the downstream workers in clients. Options
// configure telemetry (labeled by WithHierarchyLevel), logging, staleness
// bound, failsafe budget, and RPC concurrency, exactly as on a room
// worker.
func NewAggregator(tree *core.Node, policy core.Policy, clients map[string]RackClient, opts ...Option) (*Aggregator, error) {
	if tree == nil {
		return nil, errors.New("controlplane: nil aggregator tree")
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("controlplane: aggregator tree: %w", err)
	}
	proxies := make(map[string]*core.Node)
	tree.Walk(func(n *core.Node) {
		if n.Proxy != nil {
			proxies[n.ID] = n
		}
	})
	if len(proxies) == 0 {
		return nil, errors.New("controlplane: aggregator tree has no proxies")
	}
	for id := range clients {
		if _, ok := proxies[id]; !ok {
			return nil, fmt.Errorf("controlplane: client %q has no proxy node", id)
		}
	}
	for id := range proxies {
		if _, ok := clients[id]; !ok {
			return nil, fmt.Errorf("controlplane: proxy node %q has no client", id)
		}
	}
	engine, err := core.NewAllocator(tree)
	if err != nil {
		return nil, fmt.Errorf("controlplane: aggregator tree: %w", err)
	}
	o := buildOptions(opts)
	level := o.level
	if level <= 0 {
		level = 1
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
		met:            newAggMetrics(o.reg, level),
		stalenessBound: o.stalenessBound,
		failsafe:       o.failsafeBudget,
		level:          level,
		digests:        o.digests == nil || *o.digests,
		tree:           tree,
		proxies:        proxies,
		engine:         engine,
		fan:            newFanEngine(newLimiter(o.rpcConcurrency), len(clients)),
		childList:      childList,
		hold:           make(map[string]holdReason, len(clients)),
		seen:           make(map[string]bool, len(clients)),
		down:           make(map[string]bool, len(clients)),
		stale:          make(map[string]int, len(clients)),
		pushed:         make([]pushedBudget, len(childList)),
	}
	a.fan.digests = a.digests
	// Until the first gather every child is unseen: an ApplyBudget that
	// arrives before any gather must hold all pushes.
	for _, id := range childList {
		a.hold[id] = holdNeverSeen
	}
	a.lastUnseen = len(childList)
	a.met.unseenChildren.Add(float64(len(childList)))
	return a, nil
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
	start := time.Now()
	pt := flightrec.TraceFrom(ctx)
	span := pt.StartSpan("agg.gather", a.tree.ID, flightrec.ParentIDFrom(ctx))
	e := a.fan
	e.reset()
	for _, id := range a.childList {
		e.add(id, a.clients[id])
	}
	e.gatherWave(ctx, pt, span.ID())

	gatherErrors := 0
	for i := range e.calls {
		c := &e.calls[i]
		if c.err != nil {
			gatherErrors++
			continue
		}
		*a.proxies[c.id].Proxy = c.summary
	}
	a.commitGather(e, gatherErrors, start)
	if a.failsafe > 0 {
		for id, reason := range a.hold {
			if reason == holdNeverSeen {
				*a.proxies[id].Proxy = failsafeSummary(a.failsafe)
			}
		}
	}
	s := a.engine.Summarize(a.policy)
	var dig *fleetobs.StatDigest
	if a.digests {
		dig = a.foldDigest(e, gatherErrors)
	}
	span.End(nil)
	a.met.gatherSeconds.ObserveSince(start)
	a.met.gatherErrors.Add(float64(gatherErrors))
	return s, dig, nil
}

// foldDigest merges this pass's child digests and stamps the aggregator's
// own level row. Called right after commitGather, under runMu. The wave's
// calls are in childList order, like pushed.
func (a *Aggregator) foldDigest(e *fanEngine, gatherErrors int) *fleetobs.StatDigest {
	a.dm.reset()
	own := fleetobs.LevelStats{
		Level:        a.level,
		Workers:      len(a.childList),
		GatherErrors: gatherErrors,
		Held:         len(a.hold),
	}
	for i := range e.calls {
		c := &e.calls[i]
		if c.err != nil {
			continue
		}
		a.dm.note(c.id, c.digest, &c.summary, a.pushed[i].w, a.pushed[i].ok)
		own.GatherLatency.Observe(fleetobs.LatencyBounds, c.elapsed.Seconds())
	}
	for id, n := range a.stale {
		if n > 0 && a.seen[id] {
			own.Stale++
		}
	}
	dig := a.dm.fold(own)
	// Staleness is the observer's judgment, not the child's, so stale
	// children become outlier entries after the fold.
	for id, n := range a.stale {
		if n > 0 && a.seen[id] {
			dig.AddOutlier(fleetobs.Outlier{
				Rack:         id,
				Reason:       fleetobs.ReasonStale,
				Score:        2 + float64(n),
				StalePeriods: n,
			})
		}
	}
	return dig
}

// commitGather records the pass's outcomes — per-child staleness
// counters, down/recovered transitions — refills the reused hold map, and
// publishes the gather half of LastStats.
func (a *Aggregator) commitGather(e *fanEngine, gatherErrors int, start time.Time) {
	for i := range e.calls {
		c := &e.calls[i]
		if c.err != nil {
			a.stale[c.id]++
			if !a.down[c.id] {
				a.down[c.id] = true
				if a.log != nil {
					a.log.Warn("aggregator child gather failed",
						"aggregator", a.tree.ID, "child", c.id, "err", c.err)
				}
			}
			continue
		}
		a.seen[c.id] = true
		if a.down[c.id] {
			a.down[c.id] = false
			if a.log != nil {
				a.log.Info("aggregator child recovered",
					"aggregator", a.tree.ID, "child", c.id, "stale_periods", a.stale[c.id])
			}
		}
		a.stale[c.id] = 0
	}
	clear(a.hold)
	unseen, staleHeld := 0, 0
	for _, id := range a.childList {
		switch {
		case !a.seen[id]:
			a.hold[id] = holdNeverSeen
			unseen++
		case a.stalenessBound > 0 && a.stale[id] > a.stalenessBound:
			a.hold[id] = holdStale
			staleHeld++
		}
	}
	a.met.unseenChildren.Add(float64(unseen - a.lastUnseen))
	a.met.staleChildren.Add(float64(staleHeld - a.lastStale))
	a.lastUnseen, a.lastStale = unseen, staleHeld
	a.mu.Lock()
	a.lastStats = PeriodStats{
		RacksServed:  len(a.clients),
		GatherErrors: gatherErrors,
		Elapsed:      time.Since(start),
	}
	a.mu.Unlock()
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
	a.engine.SetExplainSink(pt.ExplainSink())
	a.engine.Run(b, a.policy)
	a.engine.SetExplainSink(nil)
	alloc := a.engine.Snapshot()

	e := a.fan
	e.reset()
	held := 0
	for _, id := range a.childList {
		c := e.add(id, a.clients[id])
		if _, h := a.hold[id]; h {
			c.skip = true
			held++
			a.met.heldPushes.Inc()
			continue
		}
		c.budget = alloc.NodeBudgets[id]
	}
	e.pushWave(ctx, pt, span.ID())
	applyErrors := 0
	var firstErr error
	for i := range e.calls {
		c := &e.calls[i]
		if !c.skip && c.err != nil {
			applyErrors++
			if firstErr == nil {
				firstErr = c.err
			}
		}
	}
	span.End(firstErr)
	a.met.pushSeconds.ObserveSince(start)
	a.met.applyErrors.Add(float64(applyErrors))

	for i := range e.calls {
		if c := &e.calls[i]; !c.skip && c.err == nil {
			a.pushed[i] = pushedBudget{w: c.budget, ok: true}
		}
	}
	a.mu.Lock()
	a.lastBudget = b
	a.lastAlloc = alloc
	a.lastStats.ApplyErrors = applyErrors
	a.lastStats.BudgetsHeld = held
	a.lastStats.Elapsed += time.Since(start)
	a.mu.Unlock()
	if a.log != nil && (applyErrors > 0 || held > 0) {
		a.log.Warn("aggregator apply degraded", "aggregator", a.tree.ID,
			"apply_errors", applyErrors, "budgets_held", held)
	}
	return firstErr
}

// pushedBudget is the budget a child's last successful push delivered.
type pushedBudget struct {
	w  power.Watts
	ok bool
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
