package controlplane

import (
	"log/slog"
	"strconv"
	"time"

	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/slo"
	"capmaestro/internal/telemetry"
)

// Option configures telemetry and logging on workers and transports. All
// instrumentation is optional: without options (or with a nil registry /
// logger) the instrumented paths cost nothing.
type Option func(*options)

type options struct {
	reg             *telemetry.Registry
	log             *slog.Logger
	budgetLogDelta  power.Watts
	stalenessBound  int
	failsafeBudget  power.Watts
	rpcRetries      int
	rpcRetryBackoff time.Duration
	recorder        *flightrec.Recorder
	slo             *slo.Tracker
	wireCodec       string
	deltaDeadband   power.Watts
	rpcConcurrency  int
	level           int
	// digests is tri-state: nil means default (workers roll up digests;
	// TCP clients do not request them over the wire), so existing
	// deployments' byte streams are untouched until a client opts in.
	digests      *bool
	fleetHistory int
}

func buildOptions(opts []Option) options {
	o := options{
		budgetLogDelta:  DefaultBudgetLogDelta,
		stalenessBound:  DefaultStalenessBound,
		rpcRetries:      DefaultRPCRetries,
		rpcRetryBackoff: DefaultRPCRetryBackoff,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithTelemetry registers the worker's or transport's metrics on reg. A
// nil registry disables metrics (the default).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// WithLogger emits structured control-loop events (period start/end, rack
// failure and recovery transitions, budget changes) to log. A nil logger
// disables event logging (the default).
func WithLogger(log *slog.Logger) Option {
	return func(o *options) { o.log = log }
}

// DefaultBudgetLogDelta is the minimum budget change, in watts, that
// triggers a "budget changed" log event.
const DefaultBudgetLogDelta = power.Watts(1)

// WithBudgetLogDelta overrides the budget-change logging threshold.
func WithBudgetLogDelta(d power.Watts) Option {
	return func(o *options) { o.budgetLogDelta = d }
}

// DefaultStalenessBound is the number of consecutive failed gathers the
// room worker tolerates before holding a rack's budget pushes: the rack
// then keeps its last applied budget instead of being steered from
// unboundedly stale state.
const DefaultStalenessBound = 3

// WithStalenessBound overrides the staleness bound, in control periods. A
// bound n holds budget pushes to a rack once its summary is more than n
// periods old; n <= 0 disables staleness holds (pushes continue from the
// last summary indefinitely). Racks that have never reported are always
// held, regardless of the bound.
func WithStalenessBound(periods int) Option {
	return func(o *options) { o.stalenessBound = periods }
}

// WithFailsafeBudget reserves b watts of the room budget for each rack
// whose gather has never succeeded, so a rack joining mid-flight (or dark
// since startup) keeps conservative headroom instead of being allocated
// zero. The default (0) excludes never-seen racks from allocation
// entirely; either way they are never pushed a budget.
func WithFailsafeBudget(b power.Watts) Option {
	return func(o *options) { o.failsafeBudget = b }
}

// WithFlightRecorder attaches a flight recorder to the room worker: every
// control period is traced (one root span, per-phase and per-rack child
// spans, rack-side spans merged across the transport) and recorded into
// rec's ring buffer together with the allocator's per-node explain
// records. A nil recorder disables tracing (the default) — the period
// then runs without a trace context and no spans are created anywhere.
func WithFlightRecorder(rec *flightrec.Recorder) Option {
	return func(o *options) { o.recorder = rec }
}

// WithSLO attaches a safety-SLO tracker to the room worker: after every
// completed control period the worker feeds the tracker one alert-engine
// evaluation with per-rack staleness samples (rack_stale_periods), so
// rules like "rack held stale ≥ N periods" fire from live control-plane
// state. A nil tracker disables SLO evaluation (the default).
func WithSLO(t *slo.Tracker) Option {
	return func(o *options) { o.slo = t }
}

// Default transport retry policy: a failed rack RPC is retried a bounded
// number of times with doubling backoff, reconnecting on each attempt.
const (
	DefaultRPCRetries      = 2
	DefaultRPCRetryBackoff = 25 * time.Millisecond
)

// WithRPCRetry overrides the TCP client's retry policy: up to retries
// additional attempts per RPC after a transport failure, starting at
// backoff and doubling per attempt. retries <= 0 disables retrying.
func WithRPCRetry(retries int, backoff time.Duration) Option {
	return func(o *options) {
		o.rpcRetries = retries
		o.rpcRetryBackoff = backoff
	}
}

// WithWireCodec names the rack transport's wire codec. Binary is the only
// codec, so CodecBinary (or "") is the only accepted name: ServeRack and
// ServeRacks return an error for any other, and a client dialed with one
// fails its first dial.
func WithWireCodec(name string) Option {
	return func(o *options) { o.wireCodec = name }
}

// WithDeltaDeadband configures delta-encoded gather responses on a rack
// server: while every metric of a fresh summary
// stays within d watts of the last full summary sent on the connection,
// the response is squashed to a few-byte "unchanged" frame. The default
// (0) squashes only exact matches; a negative d disables delta responses
// entirely. Full-summary resync is forced on every reconnect (retries
// re-dial) and on any deadband breach, so the room's view drifts at most
// d watts per metric.
func WithDeltaDeadband(d power.Watts) Option {
	return func(o *options) { o.deltaDeadband = d }
}

// WithRPCConcurrency bounds how many rack RPCs a room worker or
// aggregator keeps in flight at once during its gather and push waves.
// The default (0) scales with GOMAXPROCS but stays well above it — rack
// RPCs are I/O-bound, so even a single-core controller wants dozens in
// flight to hide network latency. Each worker gets its own bound.
func WithRPCConcurrency(n int) Option {
	return func(o *options) { o.rpcConcurrency = n }
}

// WithDigests turns the fleet observability plane on or off. On workers
// (room workers and aggregators) it controls whether gathers roll child
// digests into a fleet StatDigest each period — on by default. On
// DialRack it controls whether the client asks servers to piggyback
// digests on gather responses — off by default, so the wire byte stream
// only changes for clients that explicitly opt in; a room over a
// digest-less transport still rolls up, synthesizing per-rack digests
// from the gathered summaries.
func WithDigests(on bool) Option {
	return func(o *options) { o.digests = &on }
}

// WithFleetHistory sizes the room worker's fleet history ring: the last n
// periods' fleet samples back /debug/fleet/history. n <= 0 keeps the
// default (fleetobs.DefaultHistorySize).
func WithFleetHistory(n int) Option {
	return func(o *options) { o.fleetHistory = n }
}

// WithHierarchyLevel labels an aggregator's per-level telemetry
// (capmaestro_controlplane_level_* families) with its tier in the
// hierarchy: level 1 is the tier directly above the racks. BuildHierarchy
// sets this automatically; a standalone aggregator defaults to level 1.
func WithHierarchyLevel(level int) Option {
	return func(o *options) { o.level = level }
}

// phaseBuckets sizes the control-period phase histograms: gather and push
// round-trip rack RPCs (ms scale), allocation is in-memory (µs scale),
// and everything must sit far inside the 8 s control period.
var phaseBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2, 4, 8}

// roomMetrics is the room worker's instrument bundle. With a nil registry
// every handle is nil and each recording call is a zero-cost no-op.
type roomMetrics struct {
	gatherSeconds   *telemetry.Histogram
	allocateSeconds *telemetry.Histogram
	pushSeconds     *telemetry.Histogram
	pipelineOverlap *telemetry.Histogram
	periods         *telemetry.Counter
	gatherErrors    *telemetry.Counter
	applyErrors     *telemetry.Counter
	heldPushes      *telemetry.Counter
	racks           *telemetry.Gauge
	budget          *telemetry.Gauge
	unseenRacks     *telemetry.Gauge
	staleByRack     map[string]*telemetry.Gauge
	budgetByRack    map[string]*telemetry.Gauge

	// Fleet digest rollup gauges, refreshed once per period from the
	// merged fleet digest.
	fleetRacks         *telemetry.Gauge
	fleetPower         *telemetry.Gauge
	fleetHeadroom      *telemetry.Gauge
	fleetWorstHeadroom *telemetry.Gauge
	fleetViolating     *telemetry.Gauge
	fleetOutliers      *telemetry.Gauge
}

func newRoomMetrics(reg *telemetry.Registry, rackIDs []string) roomMetrics {
	phases := reg.HistogramVec("capmaestro_controlplane_phase_seconds",
		"Latency of each room-worker control-period phase.", phaseBuckets, "phase")
	stale := reg.GaugeVec("capmaestro_controlplane_rack_stale_periods",
		"Consecutive periods a rack proxy has served a stale summary (0 = fresh).", "rack")
	rackBudget := reg.GaugeVec("capmaestro_controlplane_rack_budget_watts",
		"Budget most recently assigned to each rack by the room worker.", "rack")
	m := roomMetrics{
		gatherSeconds:   phases.With("gather"),
		allocateSeconds: phases.With("allocate"),
		pushSeconds:     phases.With("push"),
		pipelineOverlap: reg.Histogram("capmaestro_period_pipeline_overlap_seconds",
			"Time period k's push phase ran concurrently with period k+1's gather in the pipelined room worker.",
			phaseBuckets),
		periods: reg.Counter("capmaestro_controlplane_periods_total",
			"Control periods executed by the room worker."),
		gatherErrors: reg.Counter("capmaestro_controlplane_gather_errors_total",
			"Rack summary gathers that failed or returned invalid summaries."),
		applyErrors: reg.Counter("capmaestro_controlplane_apply_errors_total",
			"Rack budget pushes that failed."),
		heldPushes: reg.Counter("capmaestro_controlplane_held_pushes_total",
			"Rack budget pushes withheld because the rack was never gathered or its summary exceeded the staleness bound."),
		racks: reg.Gauge("capmaestro_controlplane_racks",
			"Racks served by the room worker."),
		budget: reg.Gauge("capmaestro_controlplane_budget_watts",
			"Contractual budget the room worker allocates (0 = tree constraint)."),
		unseenRacks: reg.Gauge("capmaestro_controlplane_unseen_racks",
			"Racks from which no summary has ever been gathered successfully."),
		staleByRack:  make(map[string]*telemetry.Gauge, len(rackIDs)),
		budgetByRack: make(map[string]*telemetry.Gauge, len(rackIDs)),
		fleetRacks: reg.Gauge("capmaestro_fleet_racks",
			"Racks covered by the room worker's last merged fleet digest."),
		fleetPower: reg.Gauge("capmaestro_fleet_power_watts",
			"Fleet-wide power demand from the last merged fleet digest."),
		fleetHeadroom: reg.Gauge("capmaestro_fleet_headroom_watts",
			"Fleet-wide headroom (budget minus demand) from the last merged fleet digest."),
		fleetWorstHeadroom: reg.Gauge("capmaestro_fleet_worst_rack_headroom_watts",
			"Worst single-rack headroom in the last merged fleet digest (negative = cap violation)."),
		fleetViolating: reg.Gauge("capmaestro_fleet_violating_racks",
			"Racks whose demand exceeded their budget in the last merged fleet digest."),
		fleetOutliers: reg.Gauge("capmaestro_fleet_outlier_racks",
			"Racks flagged as outliers (cap-exceeded, low-headroom, stale) in the last merged fleet digest."),
	}
	for _, id := range rackIDs {
		m.staleByRack[id] = stale.With(id)
		m.budgetByRack[id] = rackBudget.With(id)
	}
	return m
}

// rackMetrics instruments a rack worker.
type rackMetrics struct {
	budget      *telemetry.Gauge
	applies     *telemetry.Counter
	applyErrors *telemetry.Counter
}

func newRackMetrics(reg *telemetry.Registry, rackID string) rackMetrics {
	return rackMetrics{
		budget: reg.GaugeVec("capmaestro_rack_budget_watts",
			"Budget most recently received from the room worker.", "rack").With(rackID),
		applies: reg.CounterVec("capmaestro_rack_applies_total",
			"Budget applications distributed down the rack subtree.", "rack").With(rackID),
		applyErrors: reg.CounterVec("capmaestro_rack_apply_errors_total",
			"Budget applications that failed to allocate.", "rack").With(rackID),
	}
}

// rpcBuckets size the transport latency histogram: loopback RPCs land in
// the sub-millisecond buckets, cross-machine ones in the millisecond
// range, and anything past 2 s indicates a timeout in a default client.
var rpcBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2}

// codecBuckets size the codec's encode/decode histograms: frames land in
// the sub-microsecond buckets, large batch frames in the microsecond
// range; anything near a millisecond means the codec has become the hot
// path again.
var codecBuckets = []float64{5e-8, 1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 2.5e-4, 1e-3}

// rpcMetrics instruments one side (server or client) of the rack
// transport. enabled short-circuits timing work when telemetry is off.
type rpcMetrics struct {
	enabled        bool
	seconds        map[string]*telemetry.Histogram
	errors         map[string]*telemetry.Counter
	codecEnc       *telemetry.Histogram
	codecDec       *telemetry.Histogram
	retries        *telemetry.Counter
	bytesIn        *telemetry.Counter
	bytesOut       *telemetry.Counter
	deltaHits      *telemetry.Counter
	protocolErrors *telemetry.Counter
	openConns      *telemetry.Gauge
	batchFrames    *telemetry.Counter
	batchRacks     *telemetry.Counter
	digestBytes    *telemetry.Counter
}

func newRPCMetrics(reg *telemetry.Registry, role string) rpcMetrics {
	seconds := reg.HistogramVec("capmaestro_rpc_seconds",
		"Rack RPC round-trip (client) or handling (server) latency.", rpcBuckets, "role", "op")
	errs := reg.CounterVec("capmaestro_rpc_errors_total",
		"Rack RPCs that returned an error.", "role", "op")
	bytes := reg.CounterVec("capmaestro_rpc_bytes_total",
		"Bytes moved over rack transport connections.", "role", "direction")
	codecSeconds := reg.HistogramVec("capmaestro_rpc_codec_seconds",
		"Time spent encoding or decoding one rack transport message, per codec.",
		codecBuckets, "role", "codec", "op")
	m := rpcMetrics{
		enabled:  reg != nil,
		seconds:  make(map[string]*telemetry.Histogram, 3),
		errors:   make(map[string]*telemetry.Counter, 3),
		codecEnc: codecSeconds.With(role, CodecBinary, "encode"),
		codecDec: codecSeconds.With(role, CodecBinary, "decode"),
		retries: reg.CounterVec("capmaestro_rpc_retries_total",
			"Rack RPC attempts retried after a transport failure.", "role").With(role),
		bytesIn:  bytes.With(role, "in"),
		bytesOut: bytes.With(role, "out"),
		deltaHits: reg.CounterVec("capmaestro_rpc_delta_hits_total",
			"Gather responses squashed to (server) or resolved from (client) an unchanged-summary delta frame.",
			"role").With(role),
		protocolErrors: reg.CounterVec("capmaestro_rpc_protocol_errors_total",
			"Malformed-but-delivered transport messages (bad framing, contradictory gather responses); each one resets its connection.",
			"role").With(role),
		openConns: reg.GaugeVec("capmaestro_rpc_open_connections",
			"Open rack transport connections.", "role").With(role),
		batchFrames: reg.CounterVec("capmaestro_rpc_batch_frames_total",
			"Multi-rack batch frames sent (client) or handled (server).", "role").With(role),
		batchRacks: reg.CounterVec("capmaestro_rpc_batch_racks_total",
			"Racks multiplexed into batch frames; batch_racks/batch_frames is the realized batching factor.",
			"role").With(role),
		digestBytes: reg.CounterVec("capmaestro_fleet_digest_wire_bytes_total",
			"Bytes of fleet digest payload carried inside binary gather frames; digest_wire_bytes/rpc_bytes is the observability plane's wire overhead.",
			"role").With(role),
	}
	for _, op := range []string{opGather, opBudget, opPing, opBatchGather, opBatchBudget} {
		m.seconds[op] = seconds.With(role, op)
		m.errors[op] = errs.With(role, op)
	}
	return m
}

// noteBatch records one batch frame multiplexing racks rack slots.
func (m *rpcMetrics) noteBatch(racks int) {
	if !m.enabled {
		return
	}
	m.batchFrames.Inc()
	m.batchRacks.Add(float64(racks))
}

// observe records one RPC of the given op; nil-safe for unknown ops.
func (m *rpcMetrics) observe(op string, start time.Time, failed bool) {
	if !m.enabled {
		return
	}
	m.seconds[op].ObserveSince(start)
	if failed {
		m.errors[op].Inc()
	}
}

// aggMetrics instruments an aggregator tier. Families are labeled by
// hierarchy level (1 = directly above the racks), so same-level
// aggregators share instruments: counters accumulate naturally and the
// child-state gauges are maintained by per-aggregator deltas.
type aggMetrics struct {
	gatherSeconds  *telemetry.Histogram
	pushSeconds    *telemetry.Histogram
	gatherErrors   *telemetry.Counter
	applyErrors    *telemetry.Counter
	heldPushes     *telemetry.Counter
	unseenChildren *telemetry.Gauge
	staleChildren  *telemetry.Gauge
}

func newAggMetrics(reg *telemetry.Registry, level int) aggMetrics {
	lvl := strconv.Itoa(level)
	return aggMetrics{
		gatherSeconds: reg.HistogramVec("capmaestro_controlplane_level_gather_seconds",
			"Latency of one aggregator gather wave, per hierarchy level (1 = above the racks).",
			phaseBuckets, "level").With(lvl),
		pushSeconds: reg.HistogramVec("capmaestro_controlplane_level_push_seconds",
			"Latency of one aggregator budget-push wave, per hierarchy level.",
			phaseBuckets, "level").With(lvl),
		gatherErrors: reg.CounterVec("capmaestro_controlplane_level_gather_errors_total",
			"Child gathers that failed or returned invalid summaries, per hierarchy level.",
			"level").With(lvl),
		applyErrors: reg.CounterVec("capmaestro_controlplane_level_apply_errors_total",
			"Child budget pushes that failed, per hierarchy level.", "level").With(lvl),
		heldPushes: reg.CounterVec("capmaestro_controlplane_level_held_pushes_total",
			"Child budget pushes withheld at an aggregator tier (never-gathered or stale children).",
			"level").With(lvl),
		unseenChildren: reg.GaugeVec("capmaestro_controlplane_level_unseen_children",
			"Children at this hierarchy level from which no summary has ever been gathered.",
			"level").With(lvl),
		staleChildren: reg.GaugeVec("capmaestro_controlplane_level_stale_children",
			"Children at this hierarchy level currently beyond the staleness bound.",
			"level").With(lvl),
	}
}
