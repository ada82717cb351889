// Package capping implements CapMaestro's per-server capping controller
// (Section 4.2, Figure 4 of the paper): a proportional-integral feedback
// loop that enforces an individual AC power budget on each power supply of
// a server, using a node manager that can only cap the server's total DC
// power.
//
// Each control iteration:
//
//  1. computes, for every active supply, the error between its assigned AC
//     budget and its measured AC power;
//  2. selects the minimum error across supplies (the most conservative
//     correction, protecting the most constrained feed);
//  3. scales the error by the supply efficiency k (AC→DC) and by the number
//     of working supplies M (a correction on one supply implies an M-times
//     larger total-server correction, since load is shared);
//  4. adds the scaled error to the integrator, which stores the previously
//     desired DC cap; and
//  5. clips the desired cap to the node manager's controllable range and
//     applies it.
//
// Storing the clipped value back into the integrator provides anti-windup.
// The controller also runs the Section 5 regression-based demand estimator
// over its per-second sensor readings.
package capping

import (
	"errors"
	"math"
	"sort"

	"capmaestro/internal/power"
	"capmaestro/internal/server"
	"capmaestro/internal/telemetry"
)

// Node is the slice of a server the capping controller interacts with:
// IPMI-style sensors plus the node manager's DC cap. *server.Server
// implements it; a real deployment would back it with IPMI transport.
//
// Supplies are addressed by index in SupplyIDs order. The controller reads
// SupplyIDs once, in New, so a node's supply set must not change after it.
type Node interface {
	// ReadSensors fills r with one SupplyAC entry per supply, reusing
	// r.SupplyAC's backing array.
	ReadSensors(r *server.Reading)
	SetDCCap(power.Watts)
	DCCapRange() (lo, hi power.Watts)
	SupplyIDs() []string
	// SupplyActive reports whether supply i is carrying load now.
	SupplyActive(i int) bool
}

// ErrorMode selects how the controller combines per-supply errors.
type ErrorMode int

// Error combination modes.
const (
	// ErrorModeMin selects the minimum (most conservative) error across
	// supplies, as the paper's controller does (Figure 4): the most
	// constrained supply governs, so no supply ever exceeds its budget.
	ErrorModeMin ErrorMode = iota
	// ErrorModeAverage averages errors across supplies. It exists as an
	// ablation: with unequal budgets it overshoots the tighter supply,
	// demonstrating why the paper's min-error design is required.
	ErrorModeAverage
)

// Config tunes a capping controller.
type Config struct {
	// K is the supply efficiency coefficient used to transform AC-domain
	// errors into the DC domain (DC = K × AC). Zero selects a typical 0.92.
	K float64
	// Errors selects the per-supply error combination; the zero value is
	// the paper's min-error rule.
	Errors ErrorMode
	// Gain scales the integral action; 1.0 applies the full scaled error
	// each iteration as the paper's controller does. Values in (0,1] trade
	// convergence speed for smoothness. Zero selects 1.0.
	Gain float64
	// DemandWindow is the number of per-second samples the demand
	// estimator keeps; zero selects the paper's 16.
	DemandWindow int

	// Telemetry registers the controller's metrics (per-supply budget and
	// measured power gauges, throttle and DC-cap gauges, cap-violation
	// counter, settle-time histogram) on the given registry. Nil disables
	// instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// ID labels this controller's metrics with the server identity; only
	// used when Telemetry is set. Empty selects "server".
	ID string
}

// DefaultK is a typical AC→DC efficiency for a platinum supply.
const DefaultK = 0.92

// Unbudgeted marks a supply with no assigned budget; it does not constrain
// the controller.
var Unbudgeted = power.Watts(math.Inf(1))

// Controller enforces per-supply AC budgets on one server.
type Controller struct {
	node Node
	k    float64
	gain float64
	mode ErrorMode
	est  *power.DemandEstimator

	// supplies and budgets are indexed like the node's supplies; a supply
	// without a budget holds Unbudgeted.
	supplies []string
	budgets  []power.Watts

	integrator  power.Watts
	initialized bool
	reading     server.Reading // reused by every Sense
	haveReading bool

	met         controllerMetrics
	settling    bool
	settleIters int
	violStreak  int
}

// New creates a controller for the given node.
func New(node Node, cfg Config) (*Controller, error) {
	if node == nil {
		return nil, errors.New("capping: nil node")
	}
	k := cfg.K
	if k == 0 {
		k = DefaultK
	}
	if k <= 0 || k > 1 {
		return nil, errors.New("capping: efficiency K must be in (0,1]")
	}
	gain := cfg.Gain
	if gain == 0 {
		gain = 1
	}
	if gain < 0 || gain > 1 {
		return nil, errors.New("capping: gain must be in (0,1]")
	}
	window := cfg.DemandWindow
	if window == 0 {
		window = power.DefaultDemandWindow
	}
	supplies := node.SupplyIDs()
	budgets := make([]power.Watts, len(supplies))
	for i := range budgets {
		budgets[i] = Unbudgeted
	}
	return &Controller{
		node:     node,
		k:        k,
		gain:     gain,
		mode:     cfg.Errors,
		est:      power.NewDemandEstimator(window),
		supplies: supplies,
		budgets:  budgets,
		met:      newControllerMetrics(cfg.Telemetry, cfg.ID, len(supplies)),
	}, nil
}

// MustNew is New but panics on error; for static fixtures.
func MustNew(node Node, cfg Config) *Controller {
	c, err := New(node, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// supplyIndex returns the node's index for the named supply, or -1.
func (c *Controller) supplyIndex(supplyID string) int {
	for i, id := range c.supplies {
		if id == supplyID {
			return i
		}
	}
	return -1
}

// SetBudget assigns an AC power budget to one supply. Pass Unbudgeted to
// remove the constraint. A supply the node does not have is ignored.
func (c *Controller) SetBudget(supplyID string, budget power.Watts) {
	if i := c.supplyIndex(supplyID); i >= 0 {
		c.SetBudgetAt(i, budget)
	}
}

// SetBudgetAt is SetBudget for supply i, in the node's SupplyIDs order.
func (c *Controller) SetBudgetAt(i int, budget power.Watts) {
	supplyID := c.supplies[i]
	prev := c.budgets[i]
	had := prev != Unbudgeted
	if math.IsInf(float64(budget), 1) {
		if had {
			c.budgets[i] = Unbudgeted
			c.met.budgetGauge(i, supplyID).Set(math.Inf(1))
		}
		return
	}
	if budget < 0 {
		budget = 0
	}
	c.budgets[i] = budget
	c.met.budgetGauge(i, supplyID).Set(float64(budget))
	// A materially different budget starts a settle-time measurement; the
	// histogram records how many iterations the loop takes to pull every
	// supply back under its line.
	if c.met.enabled && (!had || math.Abs(float64(budget-prev)) > 1) {
		c.settling = true
		c.settleIters = 0
	}
}

// Budget returns the AC budget assigned to a supply (Unbudgeted if none).
func (c *Controller) Budget(supplyID string) power.Watts {
	if i := c.supplyIndex(supplyID); i >= 0 {
		return c.budgets[i]
	}
	return Unbudgeted
}

// BudgetedSupplies lists the supplies with assigned budgets, sorted.
func (c *Controller) BudgetedSupplies() []string {
	ids := make([]string, 0, len(c.budgets))
	for i, b := range c.budgets {
		if b != Unbudgeted {
			ids = append(ids, c.supplies[i])
		}
	}
	sort.Strings(ids)
	return ids
}

// Sense takes one per-second sensor sample, feeding the demand estimator.
// The paper's prototype reads sensors every second and runs the control
// iteration every 8-second control period.
//
// The returned reading's SupplyAC is in the node's SupplyIDs order and
// shares the controller's buffer: it is valid until the next Sense.
func (c *Controller) Sense() server.Reading {
	c.node.ReadSensors(&c.reading)
	r := c.reading
	c.est.Observe(r.TotalAC, r.Throttle)
	c.haveReading = true
	if c.met.enabled {
		c.met.throttle.Set(r.Throttle)
		for i, p := range r.SupplyAC {
			c.met.powerGauge(i, c.supplies[i]).Set(float64(p))
		}
	}
	return r
}

// Demand reports the regression-estimated full-performance AC power demand
// of the server (Section 5). ok is false until enough samples exist.
func (c *Controller) Demand() (power.Watts, bool) { return c.est.Demand() }

// Iterate runs one PI control iteration using the most recent sensor
// sample (taking a fresh one if Sense has not been called) and applies the
// resulting DC cap to the node manager. It returns the applied cap.
func (c *Controller) Iterate() power.Watts {
	if !c.haveReading {
		c.Sense()
	}
	r := c.reading
	c.haveReading = false // force a fresh reading next iteration

	lo, hi := c.node.DCCapRange()
	if !c.initialized {
		// Start the integrator at the top of the controllable range so an
		// unbudgeted server runs uncapped.
		c.integrator = hi
		c.initialized = true
	}

	m := 0 // working supplies
	minErr := power.Watts(math.Inf(1))
	var errSum power.Watts
	var budgeted, violated int
	for i, budget := range c.budgets {
		if !c.node.SupplyActive(i) {
			continue
		}
		m++
		if budget == Unbudgeted {
			continue // unbudgeted supply does not constrain
		}
		errW := budget - r.SupplyAC[i]
		errSum += errW
		budgeted++
		if errW < minErr {
			minErr = errW
		}
		if r.SupplyAC[i] > budget+violationTolerance(budget) {
			violated++
		}
	}
	if violated > 0 {
		c.violStreak++
	} else {
		c.violStreak = 0
	}
	if c.met.enabled {
		if violated > 0 {
			c.met.violations.Inc()
		}
		if c.settling {
			c.settleIters++
			if violated == 0 {
				c.met.settle.Observe(float64(c.settleIters))
				c.settling = false
			}
		}
	}
	if c.mode == ErrorModeAverage && budgeted > 0 {
		minErr = errSum / power.Watts(budgeted)
	}

	if math.IsInf(float64(minErr), 1) || m == 0 {
		// No budgeted active supplies: release the cap entirely.
		c.integrator = hi
	} else {
		// AC error on one supply ⇒ k×M times larger DC-domain correction
		// for the whole server (Figure 4, steps 2–3).
		c.integrator += power.Watts(c.gain) * minErr * power.Watts(c.k) * power.Watts(m)
		c.integrator = c.integrator.Clamp(lo, hi) // step 4 + anti-windup
	}
	c.node.SetDCCap(c.integrator)
	c.met.dcCap.Set(float64(c.integrator))
	return c.integrator
}

// DesiredDCCap exposes the integrator state (the cap last applied).
func (c *Controller) DesiredDCCap() power.Watts { return c.integrator }

// ViolationStreak counts consecutive Iterate calls in which at least one
// budgeted supply sat above its budget (plus tolerance). The SLO layer
// alerts on long streaks — a server the PI loop is failing to pull under
// its line.
func (c *Controller) ViolationStreak() int { return c.violStreak }
