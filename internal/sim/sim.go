// Package sim ties the substrates together into a tick-based data-center
// simulation: servers with node managers, per-server capping controllers,
// the hierarchical allocation run every control period, breaker thermal
// models with trip-and-cascade behaviour, and event injection (feed
// failures, budget changes, load changes). The paper's real-system
// experiments (Sections 6.1–6.3) are reproduced by driving this simulator.
//
// Time advances in one-second ticks, matching the paper's sensor cadence:
// every second each capping controller samples its server's sensors; every
// control period (8 s by default) the control hierarchy gathers metrics,
// allocates budgets, and each capping controller runs one PI iteration.
package sim

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"capmaestro/internal/breaker"
	"capmaestro/internal/capping"
	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/server"
	"capmaestro/internal/slo"
	"capmaestro/internal/telemetry"
	"capmaestro/internal/topology"
	"capmaestro/internal/trace"
)

// DefaultControlPeriod is the paper's 8-second control period.
const DefaultControlPeriod = 8 * time.Second

// ServerSpec describes one simulated server. Supplies and their feed
// placement come from the topology; the spec adds workload and class data.
type ServerSpec struct {
	Priority    core.Priority
	Model       power.ServerModel // zero value selects the default model
	Utilization float64

	ActuationTau time.Duration
	NoiseSigma   float64
	NoiseSeed    int64

	// UncontrolledPower is a constant draw from components the node
	// manager cannot throttle (GPUs, storage, NICs).
	UncontrolledPower power.Watts
}

// Config assembles a simulation.
type Config struct {
	Topology *topology.Topology
	// Servers maps server ID (as referenced by topology supplies) to spec.
	Servers map[string]ServerSpec
	// Policy selects the allocation policy; SPO additionally enables the
	// stranded power optimization pass.
	Policy core.Policy
	SPO    bool
	// RootBudgets assigns a contractual budget to each feed's tree. Feeds
	// without an entry allocate up to their physical constraint.
	RootBudgets map[topology.FeedID]power.Watts
	// Derating converts ratings to enforceable limits; zero value selects
	// the conventional 80% rule.
	Derating *topology.Derating
	// ControlPeriod overrides the 8 s control period.
	ControlPeriod time.Duration
	// Capping tunes the per-server PI controllers.
	Capping capping.Config

	// TraceNodes, TraceSupplies, and TraceServers select which entities
	// record time series (power per node; power+budget per supply;
	// throttle level per server).
	TraceNodes    []string
	TraceSupplies []string
	TraceServers  []string

	// Telemetry registers live metrics for every simulated layer — the
	// capping controllers' budget/power/throttle gauges, the node
	// managers' actuation-clamp counters, and simulator-level breaker and
	// safety counters — on the given registry. Nil disables it.
	Telemetry *telemetry.Registry
	// Logger receives structured events (breaker trips, feed failures,
	// invariant violations). Nil disables event logging.
	Logger *slog.Logger
	// FlightRecorder retains each control period's allocation trace and
	// per-node explain records. Nil disables recording.
	FlightRecorder *flightrec.Recorder
	// SLO attaches a safety-SLO tracker: feed failures, budget cuts,
	// supply failures, and breaker trips open exposure windows; every
	// tick updates per-feed trip risk and the window's safety verdict;
	// every control period runs one alert-engine evaluation with
	// per-server cap-violation-streak samples. Nil disables tracking.
	SLO *slo.Tracker
}

// Simulator is a running simulation.
type Simulator struct {
	topo        *topology.Topology
	derating    topology.Derating
	policy      core.Policy
	spo         bool
	rootBudgets map[topology.FeedID]power.Watts
	period      time.Duration
	capCfg      capping.Config

	// The plant is addressed by index, in tables New builds once: the
	// topology and the server set never change afterwards. servers,
	// controllers and readings (each controller's last Sense) are in
	// serverIDs order.
	serverIDs   []string
	serverAt    map[string]int
	servers     []*server.Server
	controllers []*capping.Controller
	readings    []server.Reading

	supplies []supplySlot   // in server order, then Supplies() order
	supplyAt map[string]int // supply ID → index in supplies

	// nodeSupplies lists every topology node's supplies in Walk order, so
	// a load sums in the same order a walk does.
	nodeSupplies map[string][]supplyRef

	breakers  []breakerSlot // sorted by node ID
	riskFeeds []string      // the feeds breakers protect, sorted
	feedRisk  []float64     // per-tick scratch, by riskFeeds index

	feedFailed map[topology.FeedID]bool

	// The control tick runs on persistent engines: feeds holds one per
	// live feed tree, and trees, treeFeeds and treeBudgets are those
	// trees, their feeds and the last period's root budgets. leaves finds
	// each supply's leaf by supplies index (nil leaf: in no tree). The
	// trees are rebuilt, and the engines rebound, only when a supply joins
	// or leaves them or rebind is set by an overlay change.
	feeds       core.FeedSet
	trees       []*core.Node
	treeFeeds   []topology.FeedID
	treeBudgets []power.Watts
	leaves      []supplyLeaf
	rootDown    []bool // per-period scratch, by topology root
	rebind      bool

	// What LastAllocation and LastControlTrees hand out for the last
	// period, each built on first use.
	lastAllocs []*core.Allocation // by tree
	lastTrees  []*core.Node
	// explains collects a recorded period's explain records; the
	// period's flight-recorder record keeps the slice.
	explains explainList

	// operator state (see operator.go)
	cordoned    map[string]bool        // serverID → closed to new work
	drainedUtil map[string]float64     // serverID → utilization before drain
	nodeBudgets map[string]power.Watts // nodeID → operator budget overlay

	// safety monitor counters
	invariantViolations []string
	infeasiblePeriods   int

	events    []event
	now       time.Duration
	rec       *trace.Recorder
	log       *slog.Logger
	flightRec *flightrec.Recorder
	slo       *slo.Tracker
	// sloSamples is evalSLOPeriod's buffer, reused every period.
	sloSamples []slo.Sample

	metBreakerTrips *telemetry.Counter
	metInfeasible   *telemetry.Counter
	metViolations   *telemetry.Counter
	metSimTime      *telemetry.Gauge

	traceNodes    map[string]bool
	traceSupplies map[string]bool
	traceServers  map[string]bool

	trippedOrder []string
}

type event struct {
	at   time.Duration
	name string
	fn   func(*Simulator)
}

// supplyRef addresses one supply: its server's index in serverIDs and its
// index in that server's Supplies().
type supplyRef struct{ srv, sup int }

// supplySlot is one row of the supply table.
type supplySlot struct {
	id   string
	feed topology.FeedID
	root int // index of its topology root
	supplyRef
}

// supplyLeaf is a supply's leaf in the bound control trees and its slot:
// node index node of the engine for tree.
type supplyLeaf struct {
	leaf       *core.SupplyLeaf
	tree, node int
}

// breakerSlot is one rated distribution node's breaker.
type breakerSlot struct {
	id       string
	b        *breaker.Breaker
	feed     int         // index into riskFeeds
	supplies []supplyRef // the node's supplies, as in nodeSupplies
}

// New validates the configuration and builds a simulator at t=0. The
// topology and the server set are fixed from here on: the breakers and the
// index tables over servers, supplies and topology nodes are built once,
// here, and rely on it.
func New(cfg Config) (*Simulator, error) {
	if cfg.Topology == nil {
		return nil, errors.New("sim: nil topology")
	}
	derating := topology.DefaultDerating()
	if cfg.Derating != nil {
		derating = *cfg.Derating
	}
	period := cfg.ControlPeriod
	if period == 0 {
		period = DefaultControlPeriod
	}
	if period < time.Second {
		return nil, fmt.Errorf("sim: control period %v below 1s tick", period)
	}
	s := &Simulator{
		topo:          cfg.Topology,
		derating:      derating,
		policy:        cfg.Policy,
		spo:           cfg.SPO,
		rootBudgets:   cfg.RootBudgets,
		period:        period,
		capCfg:        cfg.Capping,
		serverAt:      make(map[string]int),
		supplyAt:      make(map[string]int),
		nodeSupplies:  make(map[string][]supplyRef),
		feedFailed:    make(map[topology.FeedID]bool),
		rebind:        true,
		cordoned:      make(map[string]bool),
		drainedUtil:   make(map[string]float64),
		nodeBudgets:   make(map[string]power.Watts),
		rec:           trace.NewRecorder(),
		log:           cfg.Logger,
		flightRec:     cfg.FlightRecorder,
		slo:           cfg.SLO,
		traceNodes:    toSet(cfg.TraceNodes),
		traceSupplies: toSet(cfg.TraceSupplies),
		traceServers:  toSet(cfg.TraceServers),
		metBreakerTrips: cfg.Telemetry.Counter("capmaestro_sim_breaker_trips_total",
			"Breakers tripped during the simulation."),
		metInfeasible: cfg.Telemetry.Counter("capmaestro_sim_infeasible_periods_total",
			"Control periods whose budget could not cover minimum power."),
		metViolations: cfg.Telemetry.Counter("capmaestro_sim_invariant_violations_total",
			"Allocation-invariant failures detected by the safety monitor."),
		metSimTime: cfg.Telemetry.Gauge("capmaestro_sim_time_seconds",
			"Current simulation clock."),
	}

	// Build servers from topology supplies + specs, in sorted ID order.
	byServer := cfg.Topology.SuppliesByServer()
	s.serverIDs = sortedKeys(byServer)
	for i, serverID := range s.serverIDs {
		spec, ok := cfg.Servers[serverID]
		if !ok {
			return nil, fmt.Errorf("sim: topology references server %q with no spec", serverID)
		}
		model := spec.Model
		if model == (power.ServerModel{}) {
			model = power.DefaultServerModel()
		}
		var supplies []server.Supply
		for j, sn := range byServer[serverID] {
			supplies = append(supplies, server.Supply{ID: sn.ID, Split: sn.Split})
			s.supplyAt[sn.ID] = len(s.supplies)
			s.supplies = append(s.supplies, supplySlot{id: sn.ID, feed: sn.Feed, supplyRef: supplyRef{i, j}})
		}
		srv, err := server.New(server.Config{
			ID:                serverID,
			Model:             model,
			Priority:          server.Priority(spec.Priority),
			Supplies:          supplies,
			ActuationTau:      spec.ActuationTau,
			NoiseSigma:        spec.NoiseSigma,
			NoiseSeed:         spec.NoiseSeed,
			UncontrolledPower: spec.UncontrolledPower,
			Telemetry:         cfg.Telemetry,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		srv.SetUtilization(spec.Utilization)
		capCfg := cfg.Capping
		capCfg.Telemetry = cfg.Telemetry
		capCfg.ID = serverID
		ctl, err := capping.New(srv, capCfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		s.serverAt[serverID] = i
		s.servers = append(s.servers, srv)
		s.controllers = append(s.controllers, ctl)
	}
	for id := range cfg.Servers {
		if _, ok := byServer[id]; !ok {
			return nil, fmt.Errorf("sim: spec for server %q has no supplies in topology", id)
		}
	}
	s.readings = make([]server.Reading, len(s.servers))
	s.leaves = make([]supplyLeaf, len(s.supplies))
	s.rootDown = make([]bool, len(cfg.Topology.Roots()))

	// Every node's supplies in Walk order, then one breaker per rated
	// distribution node, remembering which feed each breaker protects for
	// per-feed trip-risk scoring.
	breakerFeed := make(map[string]string)
	for r, root := range cfg.Topology.Roots() {
		var flat []supplyRef
		root.Walk(func(n *topology.Node) bool {
			switch {
			case n.Kind == topology.KindSupply:
				sup := &s.supplies[s.supplyAt[n.ID]]
				sup.root = r
				flat = append(flat, sup.supplyRef)
			case n.Rating > 0:
				breakerFeed[n.ID] = string(root.Feed)
			}
			return true
		})
		s.spanSupplies(root, flat)
	}
	riskFeeds := make(map[string]bool)
	for _, feed := range breakerFeed {
		riskFeeds[feed] = true
	}
	s.riskFeeds = sortedKeys(riskFeeds)
	s.feedRisk = make([]float64, len(s.riskFeeds))
	for _, id := range sortedKeys(breakerFeed) {
		s.breakers = append(s.breakers, breakerSlot{
			id:       id,
			b:        breaker.MustNew(cfg.Topology.Node(id).Rating, breaker.Config{}),
			feed:     sort.SearchStrings(s.riskFeeds, breakerFeed[id]),
			supplies: s.nodeSupplies[id],
		})
	}
	return s, nil
}

// spanSupplies records the supplies of n and of every node beneath it.
// flat holds n's root's supplies in Walk order, starting at n's first; a
// pre-order walk lists a subtree's supplies contiguously, so each node's
// list is one run of it. It returns the part of flat after n's subtree.
func (s *Simulator) spanSupplies(n *topology.Node, flat []supplyRef) []supplyRef {
	rest := flat
	if n.Kind == topology.KindSupply {
		rest = rest[1:]
	}
	for _, c := range n.Children() {
		rest = s.spanSupplies(c, rest)
	}
	k := len(flat) - len(rest)
	s.nodeSupplies[n.ID] = flat[:k:k]
	return rest
}

func toSet(items []string) map[string]bool {
	m := make(map[string]bool, len(items))
	for _, it := range items {
		m[it] = true
	}
	return m
}

// Now returns the simulation clock.
func (s *Simulator) Now() time.Duration { return s.now }

// Topology exposes the simulated physical topology.
func (s *Simulator) Topology() *topology.Topology { return s.topo }

// ServerIDs lists simulated server IDs in sorted order.
func (s *Simulator) ServerIDs() []string { return append([]string(nil), s.serverIDs...) }

// Recorder exposes the collected time series.
func (s *Simulator) Recorder() *trace.Recorder { return s.rec }

// SLO exposes the attached safety-SLO tracker (nil when none).
func (s *Simulator) SLO() *slo.Tracker { return s.slo }

// Server returns a simulated server by ID (nil if absent).
func (s *Simulator) Server(id string) *server.Server {
	if i, ok := s.serverAt[id]; ok {
		return s.servers[i]
	}
	return nil
}

// Controller returns a server's capping controller (nil if absent).
func (s *Simulator) Controller(serverID string) *capping.Controller {
	if i, ok := s.serverAt[serverID]; ok {
		return s.controllers[i]
	}
	return nil
}

// LastAllocation returns the most recent allocation for a feed (nil when
// the feed had no live tree), materialized from its engine on first use.
func (s *Simulator) LastAllocation(feed topology.FeedID) *core.Allocation {
	for i := len(s.treeFeeds) - 1; i >= 0; i-- {
		if s.treeFeeds[i] == feed {
			if s.lastAllocs[i] == nil {
				s.lastAllocs[i] = s.feeds.Engine(i).Snapshot()
			}
			return s.lastAllocs[i]
		}
	}
	return nil
}

// LastSPOReport returns the stranded-power report from the most recent
// control period (nil when SPO is disabled, no period has run, or the
// last one had no live tree to budget).
func (s *Simulator) LastSPOReport() *core.SPOReport { return s.feeds.Report() }

// InvariantViolations lists allocation-invariant failures detected by the
// safety monitor (budget exceeding a limit, a feasible minimum not
// covered). A non-empty list indicates a control-plane bug.
func (s *Simulator) InvariantViolations() []string {
	return append([]string(nil), s.invariantViolations...)
}

// InfeasiblePeriods counts control periods in which some budget could not
// cover the minimum power of the servers beneath it — a data center that
// cannot be protected by capping alone.
func (s *Simulator) InfeasiblePeriods() int { return s.infeasiblePeriods }

// Schedule registers fn to run at simulation time at (relative to t=0).
// Events sharing a timestamp fire in registration order.
func (s *Simulator) Schedule(at time.Duration, name string, fn func(*Simulator)) {
	// Insert after any events with the same timestamp, keeping the list
	// sorted without re-sorting it on every call.
	i := sort.Search(len(s.events), func(i int) bool { return s.events[i].at > at })
	s.events = append(s.events, event{})
	copy(s.events[i+1:], s.events[i:])
	s.events[i] = event{at: at, name: name, fn: fn}
}

// SetUtilization changes a server's workload utilization immediately.
func (s *Simulator) SetUtilization(serverID string, u float64) error {
	srv := s.Server(serverID)
	if srv == nil {
		return fmt.Errorf("sim: unknown server %q", serverID)
	}
	srv.SetUtilization(u)
	return nil
}

// SetRootBudget changes a feed's contractual budget at runtime (e.g. a
// demand-response event or renegotiated utility contract); the next
// control period allocates against it. A cut — a budget below the
// previous one, or below the feed's current measured load — opens an SLO
// exposure window that stays open until the feed is back under budget.
func (s *Simulator) SetRootBudget(feed topology.FeedID, budget power.Watts) {
	if s.rootBudgets == nil {
		s.rootBudgets = make(map[topology.FeedID]power.Watts)
	}
	prev := s.rootBudgets[feed]
	s.rootBudgets[feed] = budget
	if budget > 0 && ((prev > 0 && budget < prev) || budget < s.feedLoad(feed)) {
		s.slo.RecordFault(s.now, "budget-cut:"+string(feed))
	}
}

// feedLoad sums the measured load of every root on the feed.
func (s *Simulator) feedLoad(feed topology.FeedID) power.Watts {
	var load power.Watts
	for _, root := range s.topo.Roots() {
		if root.Feed == feed {
			load += s.NodeLoad(root.ID)
		}
	}
	return load
}

// SetPriority changes a server's priority; the next control period
// re-budgets with it (proactive priority propagation from a scheduler).
func (s *Simulator) SetPriority(serverID string, p core.Priority) error {
	srv := s.Server(serverID)
	if srv == nil {
		return fmt.Errorf("sim: unknown server %q", serverID)
	}
	srv.SetPriority(server.Priority(p))
	return nil
}

// FailFeed takes an entire power feed down: every supply on the feed fails
// and its load shifts to the surviving cords, emulating the paper's
// worst-case power emergency.
func (s *Simulator) FailFeed(feed topology.FeedID) {
	if !s.feedFailed[feed] {
		s.slo.RecordFault(s.now, "feed-fail:"+string(feed))
	}
	s.feedFailed[feed] = true
	s.setFeedSupplies(feed, server.SupplyFailed)
	if s.log != nil {
		s.log.Warn("feed failed", "feed", string(feed), "t", s.now)
	}
}

// RestoreFeed brings a failed feed back.
func (s *Simulator) RestoreFeed(feed topology.FeedID) {
	s.feedFailed[feed] = false
	s.setFeedSupplies(feed, server.SupplyActive)
	if s.log != nil {
		s.log.Info("feed restored", "feed", string(feed), "t", s.now)
	}
}

func (s *Simulator) setFeedSupplies(feed topology.FeedID, state server.SupplyState) {
	for _, sup := range s.supplies {
		if sup.feed != feed {
			continue
		}
		if err := s.servers[sup.srv].SetSupplyState(sup.id, state); err != nil {
			panic(err) // supply/server wiring is validated at construction
		}
	}
}

// FeedFailed reports whether a feed is currently down.
func (s *Simulator) FeedFailed(feed topology.FeedID) bool { return s.feedFailed[feed] }

// SetSupplyState fails, restores, or stands by a single power supply
// (e.g. one pulled cord or a dead PSU, as opposed to a whole-feed outage).
func (s *Simulator) SetSupplyState(supplyID string, state server.SupplyState) error {
	k, ok := s.supplyAt[supplyID]
	if !ok {
		return fmt.Errorf("sim: unknown supply %q", supplyID)
	}
	if state == server.SupplyFailed {
		s.slo.RecordFault(s.now, "supply-fail:"+supplyID)
	}
	return s.servers[s.supplies[k].srv].SetSupplyState(supplyID, state)
}

// TrippedBreakers lists distribution nodes whose breakers have tripped, in
// trip order. An empty list after a run is the safety property the paper's
// capping architecture exists to guarantee.
func (s *Simulator) TrippedBreakers() []string {
	return append([]string(nil), s.trippedOrder...)
}

// NodeLoad computes the electrical load currently flowing through a
// topology node: the sum of supply AC draws beneath it, 0 for an unknown
// node.
func (s *Simulator) NodeLoad(nodeID string) power.Watts {
	return s.load(s.nodeSupplies[nodeID])
}

// load sums the AC draws of the given supplies, in order.
func (s *Simulator) load(refs []supplyRef) power.Watts {
	var load power.Watts
	for _, r := range refs {
		load += s.servers[r.srv].SupplyACPowerAt(r.sup)
	}
	return load
}

// Run advances the simulation by d in one-second ticks.
func (s *Simulator) Run(d time.Duration) {
	end := s.now + d
	for s.now < end {
		s.tick()
	}
}

// tick advances one second of simulated time.
func (s *Simulator) tick() {
	// Fire due events.
	for len(s.events) > 0 && s.events[0].at <= s.now {
		ev := s.events[0]
		s.events = s.events[1:]
		ev.fn(s)
	}

	// Actuation + per-second sensing.
	for i, srv := range s.servers {
		srv.Step(time.Second)
		s.readings[i] = s.controllers[i].Sense()
	}

	// Control period boundary: gather, allocate, budget, iterate, then
	// one SLO alert-engine evaluation over the fresh period state.
	if s.now%s.period == 0 {
		s.controlPeriod()
		s.evalSLOPeriod()
	}

	// Breaker thermal state and trip cascade.
	s.updateBreakers()

	// Traces.
	s.recordTraces()

	s.now += time.Second
	s.metSimTime.Set(s.now.Seconds())
}

// controlPeriod runs one metrics-gathering + budgeting round over every
// live feed tree, then applies the resulting per-supply budgets to the
// capping controllers and runs their PI iterations.
func (s *Simulator) controlPeriod() {
	if s.treesStale() {
		s.bindTrees()
	}
	clear(s.lastAllocs)
	s.lastTrees = nil
	if len(s.trees) == 0 {
		return
	}
	for i, feed := range s.treeFeeds {
		s.treeBudgets[i] = s.rootBudgets[feed]
	}
	s.fillLeaves()

	// With a flight recorder attached, the period's allocation is traced
	// and every node's explain record retained, in a list sized once for
	// the trees' nodes that the record then keeps; span calls no-op when
	// the recorder (and thus pt) is nil.
	var (
		pt   *flightrec.PeriodTrace
		sink core.ExplainSink
	)
	if s.flightRec.Enabled() {
		pt = flightrec.NewPeriodTrace()
		n := 0
		for i := range s.trees {
			n += s.feeds.Engine(i).Len()
		}
		s.explains = make(explainList, 0, n)
		sink = &s.explains
	}
	periodStart := time.Now()
	root := pt.StartSpan("period", "sim", "")
	allocSpan := pt.StartSpan("allocate", "sim", root.ID())
	s.feeds.Run(s.treeBudgets, s.policy, s.spo, sink)
	allocSpan.End(nil)

	// Safety monitor: every allocation must respect its tree's invariants;
	// violations indicate a control-plane bug and are recorded for
	// inspection rather than silently applied.
	infeasible := false
	for i, feed := range s.treeFeeds {
		eng := s.feeds.Engine(i)
		if err := eng.CheckInvariants(); err != nil {
			s.invariantViolations = append(s.invariantViolations,
				fmt.Sprintf("t=%s feed=%s: %v", s.now, feed, err))
			s.metViolations.Inc()
			if s.log != nil {
				s.log.Error("allocation invariant violated", "feed", string(feed), "t", s.now, "err", err)
			}
		}
		if eng.Infeasible() {
			infeasible = true
			s.infeasiblePeriods++
			s.metInfeasible.Inc()
		}
	}

	// Apply budgets: supplies present in a tree get their allocation;
	// supplies on failed feeds lose their budgets.
	for k, sup := range s.supplies {
		b := capping.Unbudgeted
		if sl := s.leaves[k]; sl.leaf != nil {
			b = s.feeds.Engine(sl.tree).NodeBudget(sl.node)
		}
		s.controllers[sup.srv].SetBudgetAt(sup.sup, b)
	}

	for _, c := range s.controllers {
		c.Iterate()
	}

	if pt != nil {
		root.End(nil)
		s.flightRec.Add(flightrec.PeriodRecord{
			TraceID:    pt.TraceID(),
			Start:      periodStart,
			Duration:   time.Since(periodStart),
			Label:      fmt.Sprintf("sim t=%s", s.now),
			Spans:      pt.Spans(),
			Explains:   s.explains,
			Infeasible: infeasible,
		})
	}
}

// explainList collects a period's explain records for its flight-recorder
// record.
type explainList []core.NodeExplain

func (l *explainList) Explain(e core.NodeExplain) { *l = append(*l, e) }

// treesStale reports whether the bound trees no longer hold exactly the
// live supplies — those with a share of their server's load, on a feed
// not failed — or an overlay changed since they were built.
func (s *Simulator) treesStale() bool {
	if s.rebind {
		return true
	}
	for r, root := range s.topo.Roots() {
		s.rootDown[r] = s.feedFailed[root.Feed]
	}
	for k, sup := range s.supplies {
		if s.live(sup) != (s.leaves[k].leaf != nil) {
			return true
		}
	}
	return false
}

// live reports whether a supply on a feed not failed belongs in a tree.
func (s *Simulator) live(sup supplySlot) bool {
	return !s.rootDown[sup.root] && s.servers[sup.srv].SupplyShareAt(sup.sup) > 0
}

// bindTrees builds a control tree over the live supplies of each feed not
// failed, with the operator overlays applied, and rebinds the engines to
// them. The leaves carry placeholders until fillLeaves writes each period's
// values.
func (s *Simulator) bindTrees() {
	s.rebind = false
	s.trees, s.treeFeeds = s.trees[:0], s.treeFeeds[:0]
	clear(s.leaves)
	for r, root := range s.topo.Roots() {
		s.rootDown[r] = s.feedFailed[root.Feed]
		if s.rootDown[r] {
			continue
		}
		tree, err := core.BuildTree(root, s.derating, func(supplyID, _ string) (core.LeafInfo, bool) {
			return core.LeafInfo{Share: 1}, s.live(s.supplies[s.supplyAt[supplyID]])
		})
		if err != nil {
			// A feed with no working supplies has nothing to budget.
			continue
		}
		s.applyNodeBudgets(tree)
		s.trees = append(s.trees, tree)
		s.treeFeeds = append(s.treeFeeds, root.Feed)
	}
	if err := s.feeds.Rebind(s.trees); err != nil {
		panic(fmt.Sprintf("sim: rebind: %v", err)) // trees are built validated
	}
	for i, tree := range s.trees {
		eng := s.feeds.Engine(i)
		for _, n := range tree.Leaves() {
			node, _ := eng.NodeIndex(n.ID)
			s.leaves[s.supplyAt[n.Leaf.SupplyID]] = supplyLeaf{leaf: n.Leaf, tree: i, node: node}
		}
	}
	s.treeBudgets = make([]power.Watts, len(s.trees))
	s.lastAllocs = make([]*core.Allocation, len(s.trees))
}

// fillLeaves writes every bound leaf for this period: its server's
// priority, envelope and estimated demand, worked out once per server,
// and the supply's share of the server's load.
func (s *Simulator) fillLeaves() {
	var (
		at             = -1 // the server the values below are for
		demand         power.Watts
		capMin, capMax power.Watts
		priority       core.Priority
	)
	for k, sup := range s.supplies {
		l := s.leaves[k].leaf
		if l == nil {
			continue
		}
		srv := s.servers[sup.srv]
		if sup.srv != at {
			at = sup.srv
			var ok bool
			if demand, ok = s.controllers[at].Demand(); !ok {
				demand = s.readings[at].TotalAC
			}
			capMin, capMax = srv.Envelope()
			priority = core.Priority(srv.Priority())
		}
		l.Share = srv.SupplyShareAt(sup.sup)
		// Prefer the measured split ("we adjust it in practice based on
		// how the load is actually split", Section 4.3.1).
		if r, ok := s.measuredShare(sup.supplyRef); ok {
			l.Share = r
		}
		l.Demand, l.CapMin, l.CapMax, l.Priority = demand, capMin, capMax, priority
	}
}

// measuredShare derives a supply's live share of its server's load from the
// last sensor reading.
func (s *Simulator) measuredShare(ref supplyRef) (float64, bool) {
	r := s.readings[ref.srv]
	if r.TotalAC <= 0 {
		return 0, false
	}
	share := float64(r.SupplyAC[ref.sup] / r.TotalAC)
	if share <= 0 {
		return 0, false
	}
	return share, true
}

// safetyTolerance is the relative slack the SLO safety predicate allows
// on breaker ratings and root budgets, mirroring the capping
// controller's violation tolerance: the PI loop converges asymptotically
// onto its line, so an exposure window closes once measured power is
// within half a percent of the limit rather than strictly under it.
const safetyTolerance = 0.005

// updateBreakers advances breaker thermal models under the current loads
// and cascades trips: a tripped breaker fails every supply beneath it.
// With an SLO tracker attached, the same sweep scores per-feed trip risk
// from the breakers' accumulated heat and delivers this tick's safety
// verdict to the open exposure window.
func (s *Simulator) updateBreakers() {
	var (
		minTTT     time.Duration
		overloaded bool
	)
	scoring := s.slo != nil
	if scoring {
		// A feed none of whose breakers reports a risk above zero gets no
		// SetTripRisk this tick, so the tracker keeps its previous value.
		for i := range s.feedRisk {
			s.feedRisk[i] = noRisk
		}
	}
	for i := range s.breakers {
		br := &s.breakers[i]
		if br.b.Tripped() {
			if scoring {
				s.feedRisk[br.feed] = 1
			}
			continue
		}
		load := s.load(br.supplies)
		if br.b.Apply(load, time.Second) {
			s.trippedOrder = append(s.trippedOrder, br.id)
			s.metBreakerTrips.Inc()
			if s.log != nil {
				s.log.Warn("breaker tripped", "node", br.id, "t", s.now)
			}
			s.slo.RecordFault(s.now, "breaker-trip:"+br.id)
			if scoring {
				s.feedRisk[br.feed] = 1
			}
			s.cascadeTrip(br.id)
			continue
		}
		if !scoring {
			continue
		}
		rs := br.b.RiskSnapshot(load)
		if rs.Risk > max(s.feedRisk[br.feed], 0) {
			s.feedRisk[br.feed] = rs.Risk
		}
		if float64(load) > float64(br.b.Rating())*(1+safetyTolerance) {
			overloaded = true
			// Normalize the exposure against the cold-start trip time at
			// this overload — the quantity the paper's 10× claim compares
			// capping latency to.
			if ttt, ok := br.b.TimeToTrip(load); ok && ttt > 0 && (minTTT == 0 || ttt < minTTT) {
				minTTT = ttt
			}
		}
	}
	if !scoring {
		return
	}
	for i, feed := range s.riskFeeds {
		if s.feedRisk[i] != noRisk {
			s.slo.SetTripRisk(feed, s.feedRisk[i])
		}
	}
	s.slo.ObserveExposure(s.now, !overloaded && s.budgetsRespected(), minTTT)
}

// noRisk marks a feed with no risk to report this tick.
const noRisk = -1.0

// budgetsRespected reports whether every live feed with a contractual
// budget is measuring at or under it (plus tolerance) — the "measured
// power back under budget" half of the exposure-window close condition.
func (s *Simulator) budgetsRespected() bool {
	for _, root := range s.topo.Roots() {
		if s.feedFailed[root.Feed] {
			continue
		}
		b := power.Watts(0)
		if s.rootBudgets != nil {
			b = s.rootBudgets[root.Feed]
		}
		if b <= 0 {
			continue
		}
		tol := power.Watts(safetyTolerance) * b
		if tol < 1 {
			tol = 1
		}
		if s.NodeLoad(root.ID) > b+tol {
			return false
		}
	}
	return true
}

// evalSLOPeriod runs one alert-engine evaluation at the control-period
// boundary, feeding each server's cap-violation streak alongside the
// tracker's built-in signals. It runs after controlPeriod so alert
// transitions annotate the period record just written.
func (s *Simulator) evalSLOPeriod() {
	if s.slo == nil {
		return
	}
	s.sloSamples = s.sloSamples[:0]
	for i, id := range s.serverIDs {
		s.sloSamples = append(s.sloSamples, slo.Sample{
			Signal: slo.SignalCapViolationStreak,
			Label:  id,
			Value:  float64(s.controllers[i].ViolationStreak()),
		})
	}
	s.slo.EvalPeriod(s.now, s.sloSamples...)
}

func (s *Simulator) cascadeTrip(nodeID string) {
	n := s.topo.Node(nodeID)
	if n == nil {
		return
	}
	n.Walk(func(m *topology.Node) bool {
		if m.Kind == topology.KindSupply {
			if err := s.Server(m.ServerID).SetSupplyState(m.ID, server.SupplyFailed); err != nil {
				panic(err)
			}
		}
		return true
	})
}

// recordTraces appends the configured series for this tick.
func (s *Simulator) recordTraces() {
	for id := range s.traceNodes {
		s.rec.Record("node:"+id, s.now, float64(s.NodeLoad(id)))
	}
	for id := range s.traceSupplies {
		k, ok := s.supplyAt[id]
		if !ok {
			continue
		}
		sup := s.supplies[k]
		s.rec.Record("supply:"+id+":power", s.now, float64(s.servers[sup.srv].SupplyACPowerAt(sup.sup)))
		b := s.controllers[sup.srv].Budget(id)
		if b != capping.Unbudgeted {
			s.rec.Record("supply:"+id+":budget", s.now, float64(b))
		}
	}
	for id := range s.traceServers {
		srv := s.Server(id)
		if srv == nil {
			continue
		}
		s.rec.Record("server:"+id+":throttle", s.now, srv.ThrottleLevel()*100)
		s.rec.Record("server:"+id+":power", s.now, float64(srv.ACPower()))
		s.rec.Record("server:"+id+":dccap", s.now, float64(srv.EffectiveDCCap()))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
