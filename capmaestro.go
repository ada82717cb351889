package capmaestro

import (
	"io"
	"time"

	"capmaestro/internal/capping"
	"capmaestro/internal/controlplane"
	"capmaestro/internal/core"
	"capmaestro/internal/dc"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/scheduler"
	"capmaestro/internal/server"
	"capmaestro/internal/sim"
	"capmaestro/internal/slo"
	"capmaestro/internal/telemetry"
	"capmaestro/internal/topocheck"
	"capmaestro/internal/topology"
	"capmaestro/internal/workload"
)

// Power units and server models.
type (
	// Watts is the power unit used throughout the library.
	Watts = power.Watts
	// ServerModel is a server's controllable AC power envelope
	// (idle, Pcap_min, Pcap_max).
	ServerModel = power.ServerModel
)

// Kilowatts constructs a Watts value from kilowatts.
func Kilowatts(kw float64) Watts { return power.Kilowatts(kw) }

// DefaultServerModel returns the paper's Table 4 server class:
// idle 160 W, Pcap_min 270 W, Pcap_max 490 W.
func DefaultServerModel() ServerModel { return power.DefaultServerModel() }

// Control trees and allocation (the paper's core algorithm).
type (
	// Priority is a workload priority level; larger is more important.
	Priority = core.Priority
	// Policy selects how priorities influence allocation.
	Policy = core.Policy
	// Node is one node of a power control tree.
	Node = core.Node
	// SupplyLeaf is the per-power-supply endpoint of a capping controller.
	SupplyLeaf = core.SupplyLeaf
	// Allocation is the result of one budgeting run.
	Allocation = core.Allocation
	// Summary is the priority-grouped metrics a subtree reports upstream.
	Summary = core.Summary
	// SPOReport describes stranded power found and reclaimed.
	SPOReport = core.SPOReport
)

// Allocation policies evaluated in the paper.
const (
	// NoPriority distributes power proportionally to demand, ignoring
	// priorities.
	NoPriority = core.NoPriority
	// LocalPriority honors priorities only at the lowest shifting level
	// (a Dynamo-style baseline).
	LocalPriority = core.LocalPriority
	// GlobalPriority is CapMaestro's policy: priority-aware at every
	// level of the hierarchy.
	GlobalPriority = core.GlobalPriority
)

// NewShifting creates a shifting-controller node with a power limit
// (non-positive means unlimited) over the given children.
func NewShifting(id string, limit Watts, children ...*Node) *Node {
	return core.NewShifting(id, limit, children...)
}

// NewLeaf creates a capping-controller endpoint node for one power supply.
func NewLeaf(id string, leaf SupplyLeaf) *Node { return core.NewLeaf(id, leaf) }

// Allocate runs the two-phase priority-aware capping algorithm over a
// control tree with the given root budget (non-positive uses the tree's
// constraint).
func Allocate(root *Node, budget Watts, policy Policy) (*Allocation, error) {
	return core.Allocate(root, budget, policy)
}

// AllocateAll allocates each control tree independently (one per feed and
// phase, as the paper deploys).
func AllocateAll(trees []*Node, budgets []Watts, policy Policy) ([]*Allocation, error) {
	return core.AllocateAll(trees, budgets, policy)
}

// AllocateWithSPO allocates with the stranded power optimization: a second
// pass reclaims budgets that supplies cannot draw and shifts them to capped
// servers on the same feed.
func AllocateWithSPO(trees []*Node, budgets []Watts, policy Policy) ([]*Allocation, *SPOReport, error) {
	return core.AllocateWithSPO(trees, budgets, policy)
}

// PredictConsumption returns each server's achievable AC power under the
// given allocations, accounting for intrinsic per-supply load splits.
func PredictConsumption(trees []*Node, allocs []*Allocation) map[string]Watts {
	return core.PredictConsumption(trees, allocs)
}

// ParsePolicy converts "none", "local", or "global" to a Policy.
func ParsePolicy(name string) (Policy, error) { return core.ParsePolicy(name) }

// Physical topology modelling.
type (
	// Topology is a set of per-feed power-distribution trees.
	Topology = topology.Topology
	// TopologyNode is one element of the physical power hierarchy.
	TopologyNode = topology.Node
	// FeedID identifies an independent power feed ("A"/"B", "X"/"Y").
	FeedID = topology.FeedID
	// Derating converts equipment ratings into enforceable limits.
	Derating = topology.Derating
)

// DeviceKind classifies physical power-distribution equipment.
type DeviceKind = topology.Kind

// Device kinds, from the utility down to the server.
const (
	KindVirtual     = topology.KindVirtual
	KindUtility     = topology.KindUtility
	KindATS         = topology.KindATS
	KindUPS         = topology.KindUPS
	KindTransformer = topology.KindTransformer
	KindRPP         = topology.KindRPP
	KindCDU         = topology.KindCDU
	KindOutlet      = topology.KindOutlet
)

// NewTopology assembles and validates a topology from per-feed roots.
func NewTopology(roots ...*TopologyNode) (*Topology, error) { return topology.New(roots...) }

// NewTopologyNode creates an unlinked physical node; link with AddChild.
func NewTopologyNode(id string, kind DeviceKind, rating Watts) *TopologyNode {
	return topology.NewNode(id, kind, rating)
}

// NewTopologySupply creates a power-supply leaf for the given server
// carrying the split fraction r of the server's load.
func NewTopologySupply(id, serverID string, split float64) *TopologyNode {
	return topology.NewSupply(id, serverID, split)
}

// DefaultDerating applies the conventional 80% sustained-loading rule.
func DefaultDerating() Derating { return topology.DefaultDerating() }

// FullRating uses 100% of each rating (for already-derated limits).
func FullRating() Derating { return topology.FullRating() }

// ReadTopologyJSON parses and validates a declarative topology document
// (see cmd/topoctl -example for the format).
func ReadTopologyJSON(r io.Reader) (*Topology, error) { return topology.ReadJSON(r) }

// Servers and capping controllers.
type (
	// Server is a simulated dual-corded server with a node manager.
	Server = server.Server
	// ServerConfig describes a server to simulate.
	ServerConfig = server.Config
	// Supply is one power supply of a server.
	Supply = server.Supply
	// Controller is the per-supply PI capping controller (Section 4.2).
	Controller = capping.Controller
	// ControllerConfig tunes a capping controller.
	ControllerConfig = capping.Config
)

// NewServer constructs a simulated server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewController builds a capping controller for a node (a *Server or any
// implementation of the capping.Node sensor/actuator interface).
func NewController(node capping.Node, cfg ControllerConfig) (*Controller, error) {
	return capping.New(node, cfg)
}

// Simulation.
type (
	// Simulator is the tick-based data-center simulation.
	Simulator = sim.Simulator
	// SimConfig assembles a simulation.
	SimConfig = sim.Config
	// ServerSpec describes one simulated server's workload and class.
	ServerSpec = sim.ServerSpec
)

// NewSimulator validates the configuration and builds a simulator.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return sim.New(cfg) }

// Capacity studies (the paper's Section 6.4 evaluation).
type (
	// DataCenterConfig mirrors Table 4 of the paper.
	DataCenterConfig = dc.Config
	// Scenario selects typical or worst-case operating conditions.
	Scenario = dc.Scenario
	// StudyOptions tunes the Monte Carlo capacity study.
	StudyOptions = dc.StudyOptions
	// CapacityResult reports a capacity search outcome.
	CapacityResult = dc.CapacityResult
)

// Capacity-study scenarios.
const (
	// Typical models normal operation: both feeds up, Google-profile load.
	Typical = dc.Typical
	// WorstCase models a power emergency: one feed down, all servers at
	// 100% utilization.
	WorstCase = dc.WorstCase
)

// DefaultDataCenterConfig returns the paper's Table 4 data center.
func DefaultDataCenterConfig() DataCenterConfig { return dc.DefaultConfig() }

// FindCapacity determines the largest deployable server count whose
// average cap ratio stays below the 1% criterion (Figure 9).
func FindCapacity(cfg DataCenterConfig, scenario Scenario, policy Policy, opts StudyOptions) (CapacityResult, error) {
	return dc.FindCapacity(cfg, scenario, policy, opts)
}

// Workload models.

// NormalizedThroughput estimates the relative throughput of a server
// consuming `consumed` watts against an uncapped demand of `demand` watts,
// calibrated against the paper's Apache measurements.
func NormalizedThroughput(consumed, demand Watts) float64 {
	return workload.NormalizedThroughput(consumed, demand)
}

// Observability.
type (
	// TelemetryRegistry collects counters, gauges, and histograms and
	// renders them in Prometheus text exposition format. Passing a nil
	// registry anywhere one is accepted disables instrumentation at zero
	// cost.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer exposes a registry over HTTP (/metrics, /healthz,
	// /debug/vars).
	TelemetryServer = telemetry.Server
	// FlightRecorder retains the last N control periods' traces and
	// allocation explain records in a ring buffer; mount its Handler on a
	// TelemetryServer to serve /debug/periods and /debug/trace.json.
	FlightRecorder = flightrec.Recorder
	// HealthLevel is the three-state health rollup reported by /healthz
	// and SLOTracker.Status.
	HealthLevel = telemetry.HealthLevel
)

// Health rollup levels, from healthy to failing.
const (
	HealthOK       = telemetry.HealthOK
	HealthWarn     = telemetry.HealthWarn
	HealthCritical = telemetry.HealthCritical
)

// NewTelemetryRegistry creates an empty metrics registry. Wire it into
// SimConfig.Telemetry (or the lower-level server/capping/control-plane
// configs) and serve it with ServeTelemetry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// ServeTelemetry binds addr (for example ":9090") and serves the registry's
// /metrics, /healthz, and /debug/vars endpoints in the background until the
// returned server is closed.
func ServeTelemetry(reg *TelemetryRegistry, addr string) (*TelemetryServer, error) {
	return telemetry.Serve(reg, addr)
}

// Safety SLOs: time-to-safe tracking, trip-risk scoring, and alerting.
type (
	// SLOTracker measures the paper's safety claim continuously: exposure
	// windows from fault to back-under-budget, per-feed breaker trip risk,
	// and an alert-rule engine with for-duration + deadband semantics.
	SLOTracker = slo.Tracker
	// SLOConfig assembles an SLOTracker.
	SLOConfig = slo.Config
	// SLORule is one alert rule (signal, op, threshold, for, deadband).
	SLORule = slo.Rule
)

// NewSLOTracker builds a safety-SLO tracker. Wire it into
// SimConfig.SLO or a room worker's WithSLO option, and mount its debug
// endpoint and health rollup with MountSLO. An empty SLOConfig uses the
// default alert rules.
func NewSLOTracker(cfg SLOConfig) (*SLOTracker, error) { return slo.New(cfg) }

// DefaultSLORules returns the built-in alert rules: breaker trip risk,
// time-to-safe margin below the paper's bound, open overloaded exposure,
// racks held on stale state, and persistent cap violations.
func DefaultSLORules() []SLORule { return slo.DefaultRules() }

// LoadSLORules parses an alert-rule JSON file (an array of SLORule).
func LoadSLORules(path string) ([]SLORule, error) { return slo.LoadRulesFile(path) }

// MountSLO serves the tracker's /debug/slo endpoint on the telemetry
// server and folds its alert state into /healthz (ok/warn/critical).
func MountSLO(ts *TelemetryServer, t *SLOTracker) {
	if ts == nil || t == nil {
		return
	}
	ts.Handle("/debug/slo", t.Handler())
	ts.AddLeveledCheck("slo", t.HealthCheck)
}

// NewFlightRecorder creates a flight recorder retaining the last size
// control periods (size <= 0 selects the default of 64). Wire it into
// SimConfig.FlightRecorder or a room worker's WithFlightRecorder option,
// and mount its debug endpoints with MountFlightRecorder.
func NewFlightRecorder(size int) *FlightRecorder { return flightrec.NewRecorder(size) }

// MountFlightRecorder serves rec's /debug/periods, /debug/periods/{id},
// and /debug/trace.json endpoints on the telemetry server.
func MountFlightRecorder(ts *TelemetryServer, rec *FlightRecorder) {
	if ts == nil || rec == nil {
		return
	}
	h := rec.Handler()
	ts.Handle("/debug/periods", h)
	ts.Handle("/debug/periods/", h)
	ts.Handle("/debug/trace.json", h)
}

// Job scheduling coordination (the Section 7 extension).
type (
	// Scheduler places jobs onto servers, keeps servers priority-pure
	// where possible, and pushes priority changes to the power manager.
	Scheduler = scheduler.Scheduler
	// Job is a placement request (cores + priority).
	Job = scheduler.Job
	// JobID identifies a job.
	JobID = scheduler.JobID
	// SchedServer describes a schedulable server (ID + cores).
	SchedServer = scheduler.ServerInfo
)

// NewScheduler creates a job scheduler over the given servers; onChange
// (may be nil) receives server priority changes, typically wired to
// Simulator.SetPriority or the production power manager.
func NewScheduler(servers []SchedServer, onChange scheduler.PriorityChange) (*Scheduler, error) {
	return scheduler.New(servers, onChange)
}

// Topology validation (the Section 7 extension).
type (
	// TopologyReport summarizes a wiring verification run.
	TopologyReport = topocheck.Report
	// TopologyPlant is the live system a verification perturbs.
	TopologyPlant = topocheck.Plant
)

// VerifyTopology checks a declared topology against the live system by
// perturbing one server at a time and watching which branch meters
// respond. Wrap a *Simulator with NewSimPlant to verify simulations.
func VerifyTopology(declared *Topology, plant TopologyPlant) (*TopologyReport, error) {
	return topocheck.Verify(declared, plant, topocheck.Options{})
}

// NewSimPlant adapts a running simulation to the TopologyPlant interface.
func NewSimPlant(s *Simulator) TopologyPlant { return &topocheck.SimPlant{Sim: s} }

// Distributed control plane (Section 5): rack and room workers exchanging
// summaries and budgets over pluggable wire codecs.
type (
	// RackWorker protects one rack's subtree and answers gather/budget
	// RPCs from the room worker.
	RackWorker = controlplane.RackWorker
	// RoomWorker protects the upper hierarchy; each rack appears in its
	// tree as a proxy node backed by a RackClient transport.
	RoomWorker = controlplane.RoomWorker
	// RackClient is the transport between the room worker and one rack:
	// in-process (NewLocalClient) or TCP (DialRack).
	RackClient = controlplane.RackClient
	// RackServer serves a rack worker over TCP.
	RackServer = controlplane.RackServer
	// RackTCPClient is the TCP transport end the room worker dials.
	RackTCPClient = controlplane.TCPClient
	// BudgetSink receives each supply's budget when a rack worker applies
	// an allocation.
	BudgetSink = controlplane.BudgetSink
	// ControlPlaneOption configures workers and transports.
	ControlPlaneOption = controlplane.Option
	// PeriodStats summarizes one room control period.
	PeriodStats = controlplane.PeriodStats
	// Aggregator is a mid-level hierarchy worker: a RackClient toward its
	// parent, a room worker toward its children.
	Aggregator = controlplane.Aggregator
	// Hierarchy is a sharded room → aggregator → rack control plane built
	// by BuildHierarchy.
	Hierarchy = controlplane.Hierarchy
	// HierarchyConfig declares a hierarchy's shape: levels, fan-out,
	// policy, budget.
	HierarchyConfig = controlplane.HierarchyConfig
	// RackHandle is a RackClient view of one rack on a multi-rack server;
	// handles sharing a client are gathered and pushed in batch frames.
	RackHandle = controlplane.RackHandle
)

// DefaultFanOut is the hierarchy fan-out BuildHierarchy uses when the
// config leaves it zero.
const DefaultFanOut = controlplane.DefaultFanOut

// NewRackWorker creates a rack worker over the rack's local control tree.
func NewRackWorker(id string, tree *Node, policy Policy, sink BudgetSink, opts ...ControlPlaneOption) (*RackWorker, error) {
	return controlplane.NewRackWorker(id, tree, policy, sink, opts...)
}

// NewRoomWorker creates a room worker over the upper control tree. Keys
// of racks must match the tree's proxy node IDs (NewProxyNode).
func NewRoomWorker(tree *Node, budget Watts, policy Policy, racks map[string]RackClient, opts ...ControlPlaneOption) (*RoomWorker, error) {
	return controlplane.NewRoomWorker(tree, budget, policy, racks, opts...)
}

// NewProxyNode creates an upper-tree stand-in for a remote rack; its
// summary is refreshed from the rack's worker every gather.
func NewProxyNode(id string) *Node { return core.NewProxy(id, core.NewSummary()) }

// NewLocalClient wraps a rack worker as an in-process transport for
// single-binary deployments.
func NewLocalClient(w *RackWorker) RackClient { return controlplane.LocalClient{Worker: w} }

// ServeRack serves a rack worker's gather/budget RPCs on addr.
func ServeRack(worker *RackWorker, addr string, opts ...ControlPlaneOption) (*RackServer, error) {
	return controlplane.ServeRack(worker, addr, opts...)
}

// DialRack connects lazily to a rack server; dialing and redialing happen
// per request, so it may be created before the server is up.
func DialRack(addr string, timeout time.Duration, opts ...ControlPlaneOption) *RackTCPClient {
	return controlplane.DialRack(addr, timeout, opts...)
}

// WithDeltaDeadband sets how far a rack's summary may drift (per metric,
// in watts) while the server still answers gathers with a few-byte
// "unchanged" frame. Zero (default) squashes only identical summaries;
// negative disables delta responses.
func WithDeltaDeadband(d Watts) ControlPlaneOption { return controlplane.WithDeltaDeadband(d) }

// WithRPCRetry sets the TCP client's retry budget per request.
func WithRPCRetry(retries int, backoff time.Duration) ControlPlaneOption {
	return controlplane.WithRPCRetry(retries, backoff)
}

// WithControlPlaneTelemetry registers worker and transport metrics
// (including per-codec encode/decode histograms and delta-hit counters)
// with the registry.
func WithControlPlaneTelemetry(reg *TelemetryRegistry) ControlPlaneOption {
	return controlplane.WithTelemetry(reg)
}

// WithControlPlaneRecorder records per-period traces, spans, and
// allocation explains into the flight recorder.
func WithControlPlaneRecorder(rec *FlightRecorder) ControlPlaneOption {
	return controlplane.WithFlightRecorder(rec)
}

// NewAggregator creates a mid-level hierarchy worker over the given
// subtree, whose proxy nodes stand for the downstream workers in clients.
func NewAggregator(tree *Node, policy Policy, clients map[string]RackClient, opts ...ControlPlaneOption) (*Aggregator, error) {
	return controlplane.NewAggregator(tree, policy, clients, opts...)
}

// BuildHierarchy shards a flat rack set into an N-level room → aggregator
// → rack control hierarchy (cfg.Levels counts every tier, racks and room
// included).
func BuildHierarchy(racks map[string]RackClient, cfg HierarchyConfig) (*Hierarchy, error) {
	return controlplane.BuildHierarchy(racks, cfg)
}

// ServeRacks serves many rack workers from one TCP listener; clients
// reach each via RackTCPClient.Rack(id), and rack handles sharing a
// client are batched into single multiplexed frames per control period.
func ServeRacks(workers map[string]RackClient, addr string, opts ...ControlPlaneOption) (*RackServer, error) {
	return controlplane.ServeRacks(workers, addr, opts...)
}

// WithRPCConcurrency bounds a worker's in-flight rack RPCs per wave
// (default max(32, 16×GOMAXPROCS)).
func WithRPCConcurrency(n int) ControlPlaneOption {
	return controlplane.WithRPCConcurrency(n)
}

// WithHierarchyLevel labels an aggregator's telemetry with its hierarchy
// level (1 = directly above the racks); BuildHierarchy sets it
// automatically.
func WithHierarchyLevel(level int) ControlPlaneOption {
	return controlplane.WithHierarchyLevel(level)
}
