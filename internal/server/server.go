// Package server simulates the IT equipment CapMaestro manages: a server
// with one or more power supplies, a firmware node manager that enforces DC
// power caps by scaling processor voltage/frequency (the role Intel Node
// Manager plays in the paper), and the IPMI-style sensors the capping
// controller reads every second — per-supply AC power and the power-cap
// throttling level.
//
// The simulation reproduces the behaviours the paper's design depends on:
//
//   - The node manager caps only the *total DC* power of the server; it has
//     no notion of per-supply budgets (Section 3.1). Enforcing individual AC
//     budgets per supply is the job of the capping controller built on top.
//   - A new DC cap takes effect with realistic actuation dynamics: the
//     paper's node manager brings power under a new cap within 6 seconds.
//   - Servers do not split load evenly across their supplies; each supply
//     carries an intrinsic fraction r of the server's load that cannot be
//     adjusted at runtime (up to a 65/35 split in the paper's fleet).
package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// Priority is a workload priority level; larger values are more important.
// The paper expects on the order of 10 levels in practice.
type Priority int

// Common priorities used by the paper's experiments.
const (
	PriorityLow  Priority = 0
	PriorityHigh Priority = 1
)

// SupplyState describes a power supply's operating condition.
type SupplyState int

// Supply states.
const (
	SupplyActive  SupplyState = iota
	SupplyStandby             // hot-spare mode: drawing no load by policy
	SupplyFailed              // faulted or disconnected from its feed
)

// String returns a short label for the state.
func (s SupplyState) String() string {
	switch s {
	case SupplyActive:
		return "active"
	case SupplyStandby:
		return "standby"
	case SupplyFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Supply is one power supply of a server, connected to one feed.
type Supply struct {
	ID string
	// Split is the intrinsic fraction of the server's load this supply
	// carries while all supplies are active. Splits across a server's
	// supplies sum to 1.
	Split float64
	State SupplyState
}

// Config describes a server to simulate.
type Config struct {
	ID       string
	Model    power.ServerModel // controllable AC envelope (idle/capmin/capmax)
	Priority Priority
	Supplies []Supply

	// Efficiency converts between the DC domain the node manager caps and
	// the AC domain the feeds see. Nil selects the default platinum curve.
	Efficiency *power.EfficiencyCurve
	// RatedDC is the per-server DC capacity used to locate the efficiency
	// operating point; zero derives it from the model's CapMax.
	RatedDC power.Watts

	// ActuationTau is the first-order time constant of the node manager's
	// response to a new DC cap. The default settles within the 6-second
	// bound the paper reports.
	ActuationTau time.Duration

	// NoiseSigma adds zero-mean Gaussian noise (in watts) to sensor
	// readings, to exercise controller robustness. Zero disables noise.
	NoiseSigma float64
	// NoiseSeed seeds the sensor-noise generator for reproducibility.
	NoiseSeed int64

	// UncontrolledPower models components the node manager cannot
	// throttle — GPUs, storage, NICs — which the paper's Section 7 calls
	// out as a gap in today's capping controllers. It adds a constant AC
	// draw that shifts the whole controllable envelope upward: the
	// effective floor becomes CapMin + UncontrolledPower, and budgets
	// below it are unenforceable.
	UncontrolledPower power.Watts

	// Telemetry registers node-manager metrics (the actuation-clamp
	// counter) on the given registry; nil disables instrumentation.
	Telemetry *telemetry.Registry
}

// DefaultActuationTau makes a step to a new cap settle (>95%) within the
// 6-second enforcement window the paper's node manager guarantees.
const DefaultActuationTau = 2 * time.Second

// hotSpare is a per-supply energy-saving policy: the supply drops to
// standby (carrying no load) when the server draws little power and
// resumes above a higher threshold. Some servers ship this behaviour in
// firmware; it is one of the paper's three causes of feed imbalance
// (Section 3.1).
type hotSpare struct {
	supplyID   string
	enterBelow power.Watts
	exitAbove  power.Watts
}

// Server is a simulated dual-corded (or single-corded) server.
type Server struct {
	id       string
	model    power.ServerModel
	priority Priority
	supplies []Supply
	eff      *power.EfficiencyCurve
	ratedDC  power.Watts
	tau      time.Duration

	util        float64     // workload CPU utilization in [0,1]
	targetDCCap power.Watts // cap last requested via SetDCCap
	effDCCap    power.Watts // cap currently actuated by the node manager

	// The operating point is a pure function of (util, effDCCap), and the
	// supply shares of the supply states; both are recomputed where those
	// inputs change so every reader is a load. demandDC and floorDC depend
	// on util alone (refresh), dcPower and acPower on the cap as well
	// (refreshPower), and the shares on the supply states (refreshShares).
	demandDC, floorDC, dcPower, acPower power.Watts
	shares                              []float64 // renormalized split per supply

	uncontrolled power.Watts
	spares       []hotSpare

	dcCapLo, dcCapHi power.Watts // DCCapRange; model, eff and uncontrolled are fixed

	noise *rand.Rand
	sigma float64

	// clamps counts SetDCCap requests outside the controllable range; a
	// climbing rate means upstream budgets are unenforceable as issued.
	clamps *telemetry.Counter
}

// New validates the configuration and constructs a server. The initial DC
// cap is the maximum (uncapped); initial utilization is zero.
func New(cfg Config) (*Server, error) {
	if cfg.ID == "" {
		return nil, errors.New("server: empty ID")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("server %s: %w", cfg.ID, err)
	}
	if len(cfg.Supplies) == 0 {
		return nil, fmt.Errorf("server %s: needs at least one supply", cfg.ID)
	}
	var splitSum float64
	seen := make(map[string]bool)
	for _, s := range cfg.Supplies {
		if s.ID == "" {
			return nil, fmt.Errorf("server %s: supply with empty ID", cfg.ID)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("server %s: duplicate supply %q", cfg.ID, s.ID)
		}
		seen[s.ID] = true
		if s.Split <= 0 || s.Split > 1 {
			return nil, fmt.Errorf("server %s: supply %q split %v out of (0,1]", cfg.ID, s.ID, s.Split)
		}
		splitSum += s.Split
	}
	if math.Abs(splitSum-1) > 1e-6 {
		return nil, fmt.Errorf("server %s: supply splits sum to %v, want 1", cfg.ID, splitSum)
	}
	eff := cfg.Efficiency
	if eff == nil {
		eff = power.DefaultEfficiencyCurve()
	}
	ratedDC := cfg.RatedDC
	if ratedDC == 0 {
		// Approximate: rated DC output near the DC draw at CapMax.
		ratedDC = eff.ACToDC(cfg.Model.CapMax, cfg.Model.CapMax)
	}
	tau := cfg.ActuationTau
	if tau == 0 {
		tau = DefaultActuationTau
	}
	if cfg.UncontrolledPower < 0 {
		return nil, fmt.Errorf("server %s: negative uncontrolled power", cfg.ID)
	}
	srv := &Server{
		id:           cfg.ID,
		model:        cfg.Model,
		priority:     cfg.Priority,
		supplies:     append([]Supply(nil), cfg.Supplies...),
		eff:          eff,
		ratedDC:      ratedDC,
		tau:          tau,
		sigma:        cfg.NoiseSigma,
		uncontrolled: cfg.UncontrolledPower,
	}
	srv.clamps = cfg.Telemetry.CounterVec("capmaestro_server_actuation_clamps_total",
		"DC cap requests clipped to the node manager's controllable range.",
		"server").With(cfg.ID)
	if cfg.NoiseSigma > 0 {
		srv.noise = rand.New(rand.NewSource(cfg.NoiseSeed))
	}
	capMin, capMax := srv.Envelope()
	srv.dcCapLo, srv.dcCapHi = srv.dcAt(capMin), srv.dcAt(capMax)
	srv.targetDCCap = srv.dcCapHi
	srv.effDCCap = srv.targetDCCap
	srv.shares = make([]float64, len(srv.supplies))
	srv.refresh()
	srv.refreshShares()
	return srv, nil
}

// MustNew is New but panics on error; for static fixtures.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ID returns the server's identifier.
func (s *Server) ID() string { return s.id }

// Model returns the server's controllable AC power envelope.
func (s *Server) Model() power.ServerModel { return s.model }

// Priority returns the server's priority level.
func (s *Server) Priority() Priority { return s.priority }

// SetPriority changes the server's priority level. In a deployment this
// happens when the job scheduler places or removes workloads (Section 7
// calls for exactly this coordination); the next control period budgets
// proactively with the new priority.
func (s *Server) SetPriority(p Priority) { s.priority = p }

// Supplies returns a copy of the supply descriptors.
func (s *Server) Supplies() []Supply { return append([]Supply(nil), s.supplies...) }

// SupplyIDs lists supply IDs in configuration order.
func (s *Server) SupplyIDs() []string {
	ids := make([]string, len(s.supplies))
	for i, sup := range s.supplies {
		ids[i] = sup.ID
	}
	return ids
}

// dcAt converts an AC power to DC using the server's efficiency curve.
func (s *Server) dcAt(ac power.Watts) power.Watts { return s.eff.ACToDC(ac, s.ratedDC) }

// acAt converts a DC power to AC using the server's efficiency curve.
func (s *Server) acAt(dc power.Watts) power.Watts { return s.eff.DCToAC(dc, s.ratedDC) }

// Envelope returns the server's effective controllable AC range: the
// model's [CapMin, CapMax] shifted up by any uncontrolled component power.
// Budget allocation must use this floor — a budget below it cannot be
// enforced no matter how hard the node manager throttles.
func (s *Server) Envelope() (capMin, capMax power.Watts) {
	return s.model.CapMin + s.uncontrolled, s.model.CapMax + s.uncontrolled
}

// UncontrolledPower reports the constant draw of unthrottleable
// components.
func (s *Server) UncontrolledPower() power.Watts { return s.uncontrolled }

// DCCapRange returns the node manager's controllable DC cap range,
// corresponding to the effective AC envelope.
func (s *Server) DCCapRange() (lo, hi power.Watts) { return s.dcCapLo, s.dcCapHi }

// SetUtilization sets the workload's CPU utilization in [0,1].
func (s *Server) SetUtilization(u float64) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	s.util = u
	s.refresh()
}

// Utilization returns the current workload CPU utilization.
func (s *Server) Utilization() float64 { return s.util }

// SetDCCap requests a new DC power cap from the node manager. The cap is
// clipped to the controllable range and takes effect over the following
// seconds according to the actuation dynamics.
func (s *Server) SetDCCap(cap power.Watts) {
	lo, hi := s.DCCapRange()
	s.targetDCCap = cap.Clamp(lo, hi)
	if s.targetDCCap != cap {
		s.clamps.Inc()
	}
}

// TargetDCCap returns the most recently requested (clipped) DC cap.
func (s *Server) TargetDCCap() power.Watts { return s.targetDCCap }

// EffectiveDCCap returns the cap the node manager is currently enforcing.
func (s *Server) EffectiveDCCap() power.Watts { return s.effDCCap }

// ConfigureHotSpare enables the standby policy on one supply: it enters
// standby when total server AC power falls below enterBelow and reactivates
// above exitAbove (the gap provides hysteresis). It returns an error for
// unknown supplies or a non-positive hysteresis band.
func (s *Server) ConfigureHotSpare(supplyID string, enterBelow, exitAbove power.Watts) error {
	if exitAbove <= enterBelow {
		return fmt.Errorf("server %s: hot-spare exit %v must exceed enter %v", s.id, exitAbove, enterBelow)
	}
	if s.supplyIndex(supplyID) < 0 {
		return fmt.Errorf("server %s: unknown supply %q", s.id, supplyID)
	}
	for i := range s.spares {
		if s.spares[i].supplyID == supplyID {
			s.spares[i] = hotSpare{supplyID: supplyID, enterBelow: enterBelow, exitAbove: exitAbove}
			return nil
		}
	}
	s.spares = append(s.spares, hotSpare{supplyID: supplyID, enterBelow: enterBelow, exitAbove: exitAbove})
	return nil
}

// Step advances the node manager's actuation by dt: the effective cap moves
// toward the target with first-order dynamics. Hot-spare policies are
// evaluated after actuation.
func (s *Server) Step(dt time.Duration) {
	if dt <= 0 {
		return
	}
	// A settled cap cannot move, so neither it nor the operating point
	// needs recomputing.
	if s.effDCCap != s.targetDCCap {
		alpha := 1 - math.Exp(-dt.Seconds()/s.tau.Seconds())
		s.effDCCap += power.Watts(alpha) * (s.targetDCCap - s.effDCCap)
		if power.ApproxEqual(s.effDCCap, s.targetDCCap, 0.01) {
			s.effDCCap = s.targetDCCap
		}
		s.refreshPower()
	}
	s.applyHotSpares()
}

// applyHotSpares toggles spare supplies between active and standby based
// on the server's current draw. Failed supplies are never touched, and a
// spare stays active when it is the only working supply.
func (s *Server) applyHotSpares() {
	for _, hs := range s.spares {
		total := s.ACPower()
		for i := range s.supplies {
			sup := &s.supplies[i]
			if sup.ID != hs.supplyID || sup.State == SupplyFailed {
				continue
			}
			switch {
			case sup.State == SupplyActive && total < hs.enterBelow && s.WorkingSupplies() > 1:
				sup.State = SupplyStandby
				s.refreshShares()
			case sup.State == SupplyStandby && total > hs.exitAbove:
				sup.State = SupplyActive
				s.refreshShares()
			}
		}
	}
}

// ACDemand is the AC power the workload would consume at full performance
// (0% throttling) at the current utilization, including uncontrolled
// components.
func (s *Server) ACDemand() power.Watts { return s.model.PowerAt(s.util) + s.uncontrolled }

// acFloor is the AC power at the lowest performance state for the current
// utilization: the throttleable dynamic portion scales with utilization, so
// a lightly loaded server cannot be pushed all the way down to CapMin's
// full-load floor. Uncontrolled components never throttle.
func (s *Server) acFloor() power.Watts {
	return s.model.Idle + power.Watts(s.util)*(s.model.CapMin-s.model.Idle) + s.uncontrolled
}

// refresh recomputes the operating point after util moves.
func (s *Server) refresh() {
	s.demandDC = s.dcAt(s.ACDemand())
	s.floorDC = s.dcAt(s.acFloor())
	s.refreshPower()
}

// refreshPower recomputes the draw after effDCCap moves: the demand and
// floor it clamps between are functions of util alone and stand.
func (s *Server) refreshPower() {
	s.dcPower = power.Max(power.Min(s.demandDC, s.effDCCap), s.floorDC)
	s.acPower = s.acAt(s.dcPower)
}

// DCPower returns the DC power the server is drawing now, after the node
// manager applies the effective cap.
func (s *Server) DCPower() power.Watts { return s.dcPower }

// ACPower returns the total AC power drawn from the feeds now.
func (s *Server) ACPower() power.Watts { return s.acPower }

// ThrottleLevel returns the node manager's power-cap throttling metric in
// [0,1]: 0 means full performance, 1 means the lowest performance state for
// the current workload.
func (s *Server) ThrottleLevel() float64 {
	demand, floor, actual := s.demandDC, s.floorDC, s.dcPower
	if actual >= demand || demand <= floor {
		return 0
	}
	t := float64((demand - actual) / (demand - floor))
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// PerfLevel returns 1 − ThrottleLevel: the fraction of full performance the
// workload currently achieves.
func (s *Server) PerfLevel() float64 { return 1 - s.ThrottleLevel() }

// refreshShares recomputes each supply's renormalized share of the server
// load after a supply state changes. A failed or standby supply carries
// zero.
func (s *Server) refreshShares() {
	var sum float64
	for i, sup := range s.supplies {
		s.shares[i] = 0
		if sup.State == SupplyActive {
			s.shares[i] = sup.Split
			sum += sup.Split
		}
	}
	if sum == 0 {
		return // total power-loss condition; all zero
	}
	for i := range s.shares {
		s.shares[i] /= sum
	}
}

// SupplyActive reports whether supply i (in Supplies() order) is
// currently carrying load.
func (s *Server) SupplyActive(i int) bool { return s.supplies[i].State == SupplyActive }

// WorkingSupplies reports the number of active supplies (the paper's M).
func (s *Server) WorkingSupplies() int {
	n := 0
	for _, sup := range s.supplies {
		if sup.State == SupplyActive {
			n++
		}
	}
	return n
}

// supplyIndex returns the position of the named supply in Supplies()
// order, or -1.
func (s *Server) supplyIndex(supplyID string) int {
	for i, sup := range s.supplies {
		if sup.ID == supplyID {
			return i
		}
	}
	return -1
}

// SupplyShare returns the renormalized split fraction r for the named
// supply under the current supply states, and whether the supply exists.
func (s *Server) SupplyShare(supplyID string) (float64, bool) {
	i := s.supplyIndex(supplyID)
	if i < 0 {
		return 0, false
	}
	return s.shares[i], true
}

// SupplyShareAt is SupplyShare for supply i in Supplies() order.
func (s *Server) SupplyShareAt(i int) float64 { return s.shares[i] }

// SupplyACPower returns the AC power drawn through the named supply.
func (s *Server) SupplyACPower(supplyID string) (power.Watts, bool) {
	i := s.supplyIndex(supplyID)
	if i < 0 {
		return 0, false
	}
	return s.SupplyACPowerAt(i), true
}

// SupplyACPowerAt is SupplyACPower for supply i in Supplies() order.
func (s *Server) SupplyACPowerAt(i int) power.Watts { return power.Watts(s.shares[i]) * s.acPower }

// SetSupplyState changes a supply's operating condition (fail a cord,
// enter/leave standby). It returns an error for unknown supplies.
func (s *Server) SetSupplyState(supplyID string, state SupplyState) error {
	i := s.supplyIndex(supplyID)
	if i < 0 {
		return fmt.Errorf("server %s: unknown supply %q", s.id, supplyID)
	}
	s.supplies[i].State = state
	s.refreshShares()
	return nil
}

// Reading is one IPMI-style sensor sample.
type Reading struct {
	// SupplyAC is the measured AC input power of each supply, in
	// Supplies() order.
	SupplyAC []power.Watts
	// TotalAC is the summed AC input power.
	TotalAC power.Watts
	// DCPower is the measured total DC power.
	DCPower power.Watts
	// Throttle is the node manager's power-cap throttling level in [0,1].
	Throttle float64
}

// ReadSensors samples the server's sensors into r, applying measurement
// noise when configured. r.SupplyAC is resized to one entry per supply and
// its backing array reused, so a caller that keeps one Reading samples
// without allocating.
func (s *Server) ReadSensors(r *Reading) {
	if cap(r.SupplyAC) < len(s.supplies) {
		r.SupplyAC = make([]power.Watts, len(s.supplies))
	}
	r.SupplyAC = r.SupplyAC[:len(s.supplies)]
	r.TotalAC = 0
	r.DCPower = s.dcPower
	r.Throttle = s.ThrottleLevel()
	for i := range s.supplies {
		v := s.SupplyACPowerAt(i)
		if s.noise != nil && v > 0 {
			v += power.Watts(s.noise.NormFloat64() * s.sigma)
			if v < 0 {
				v = 0
			}
		}
		r.SupplyAC[i] = v
		r.TotalAC += v
	}
}

// Efficiency exposes the server's AC/DC efficiency curve.
func (s *Server) Efficiency() *power.EfficiencyCurve { return s.eff }

// RatedDC exposes the rated DC capacity used for efficiency lookups.
func (s *Server) RatedDC() power.Watts { return s.ratedDC }
