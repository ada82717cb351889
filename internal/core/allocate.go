package core

import (
	"fmt"

	"capmaestro/internal/power"
)

// Policy selects how priorities influence budget allocation (Section 6.2).
type Policy int

// Policies evaluated in the paper.
const (
	// NoPriority guarantees Pcap_min to every server and distributes the
	// remaining budget proportionally to Pdemand − Pcap_min, ignoring
	// priorities entirely.
	NoPriority Policy = iota
	// LocalPriority models Facebook's Dynamo extended to redundant feeds:
	// priorities are honored only by the lowest-level shifting controllers
	// (those whose children are capping controllers); all higher levels
	// allocate with the No Priority rule.
	LocalPriority
	// GlobalPriority is CapMaestro's policy: every shifting controller in
	// the tree is priority-aware, so high-priority servers anywhere in the
	// data center are capped only after all lower-priority servers have
	// been throttled to their minimum, as far as power limits allow.
	GlobalPriority
)

// String names the policy as the paper does.
func (p Policy) String() string {
	switch p {
	case NoPriority:
		return "No Priority"
	case LocalPriority:
		return "Local Priority"
	case GlobalPriority:
		return "Global Priority"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a command-line name ("none", "local", "global") to a
// Policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "none", "no", "nopriority":
		return NoPriority, nil
	case "local", "localpriority", "dynamo":
		return LocalPriority, nil
	case "global", "globalpriority", "capmaestro":
		return GlobalPriority, nil
	default:
		return 0, fmt.Errorf("core: unknown policy %q (want none, local, or global)", name)
	}
}

// epsilon absorbs floating-point noise in watt arithmetic.
const epsilon = 1e-6

// Allocation is the result of one run of the budgeting algorithm over a
// control tree.
type Allocation struct {
	// SupplyBudgets maps supply ID to its assigned AC budget.
	SupplyBudgets map[string]power.Watts
	// NodeBudgets maps every tree-node ID to the budget assigned to it,
	// useful for verifying limits and plotting per-breaker loads. Proxy
	// nodes appear here with the budget their remote worker should
	// distribute.
	NodeBudgets map[string]power.Watts
	// Infeasible is true when some budget could not even cover the
	// aggregate Pcap_min beneath it; minimum budgets were scaled down
	// proportionally there and no server is guaranteed its floor.
	Infeasible bool
}

// Budget returns the allocated budget for a supply ID (0 if absent).
func (a *Allocation) Budget(supplyID string) power.Watts { return a.SupplyBudgets[supplyID] }

// Allocate runs the two-phase algorithm of Section 4.3 over the tree: a
// bottom-up metrics gathering phase followed by a top-down budgeting
// phase. budget is the power available at the root (the feed's contractual
// budget); the root's own limit further constrains it. A non-positive
// budget means "no explicit budget" and uses the root constraint.
//
// Allocate is one-shot: tests, examples and oracles — a per-period caller
// holds an Allocator. Each call validates the tree, flattens it into a
// fresh Allocator and materializes the result maps, which is 10–50× the
// cost of a pass on a held one.
func Allocate(root *Node, budget power.Watts, policy Policy) (*Allocation, error) {
	a, err := NewAllocator(root)
	if err != nil {
		return nil, err
	}
	a.Run(budget, policy)
	return a.Snapshot(), nil
}

// MustAllocate is Allocate but panics on error; for static fixtures.
func MustAllocate(root *Node, budget power.Watts, policy Policy) *Allocation {
	alloc, err := Allocate(root, budget, policy)
	if err != nil {
		panic(err)
	}
	return alloc
}

// leafMetricsInto computes the level-1 (capping controller) summary of
// Section 4.3.1 for one supply leaf, writing into a reusable destination:
//
//	Pcap_min(1,j) = r × Pcap_min(0)
//	Pdemand(1,j)  = r × max(Pdemand(0), Pcap_min(0))
//	Prequest(1,j) = Pdemand(1,j)
//	Pconstraint   = r × Pcap_max(0)
//
// where j is the server's priority. Demand is clamped to CapMax since any
// budget beyond CapMax is wasted. A supply with an SPO BudgetCap is pinned
// at exactly that value — floor and ceiling — so the second pass hands the
// stranded supply precisely what it can use and moves only the truly freed
// power; merely capping the demand would shrink the supply's proportional
// weight in step 3 and let the re-run take usable watts away from the
// donor.
func leafMetricsInto(m *Summary, l *SupplyLeaf) {
	r := power.Watts(l.Share)
	capMin := r * l.CapMin
	demand := power.Min(power.Max(l.Demand, l.CapMin), l.CapMax) * r
	constraint := r * l.CapMax
	if l.BudgetCap > 0 {
		bc := power.Max(l.BudgetCap, capMin)
		capMin = bc
		demand = bc
		constraint = bc
	}
	m.reset()
	m.Constraint = constraint
	lv := m.level(l.Priority)
	lv.CapMin = capMin
	lv.Demand = demand
	lv.Request = demand
}

// waterfillInto distributes amount across recipients proportionally to
// weights, capping each recipient at caps[i] and re-distributing overflow
// among the unsaturated recipients until the amount is exhausted or
// everyone is saturated. shares and saturated are caller-provided storage
// of len(weights); the filled shares slice is returned.
func waterfillInto(amount power.Watts, weights []float64, caps []power.Watts, shares []power.Watts, saturated []bool) []power.Watts {
	n := len(weights)
	for i := 0; i < n; i++ {
		shares[i] = 0
		saturated[i] = false
	}
	if amount <= 0 {
		return shares
	}
	for iter := 0; iter < n+1 && amount > epsilon; iter++ {
		var wsum float64
		for i := 0; i < n; i++ {
			if !saturated[i] && caps[i]-shares[i] > epsilon {
				wsum += weights[i]
			}
		}
		if wsum <= 0 {
			// No weighted recipients remain; fall back to equal split
			// among whoever still has cap headroom.
			var open int
			for i := 0; i < n; i++ {
				if caps[i]-shares[i] > epsilon {
					open++
				}
			}
			if open == 0 {
				break
			}
			per := amount / power.Watts(open)
			var leftover power.Watts
			for i := 0; i < n; i++ {
				room := caps[i] - shares[i]
				if room <= epsilon {
					continue
				}
				give := power.Min(per, room)
				shares[i] += give
				leftover += per - give
			}
			amount = leftover
			continue
		}
		var overflow power.Watts
		for i := 0; i < n; i++ {
			if saturated[i] || caps[i]-shares[i] <= epsilon {
				continue
			}
			give := amount * power.Watts(weights[i]/wsum)
			room := caps[i] - shares[i]
			if give >= room {
				shares[i] = caps[i]
				overflow += give - room
				saturated[i] = true
			} else {
				shares[i] += give
			}
		}
		amount = overflow
	}
	return shares
}

// waterfill is the allocating form of waterfillInto, kept for tests and
// one-shot callers.
func waterfill(amount power.Watts, weights []float64, caps []power.Watts) []power.Watts {
	n := len(weights)
	return waterfillInto(amount, weights, caps, make([]power.Watts, n), make([]bool, n))
}

// CheckInvariants is Allocator.CheckInvariants over a map-based result:
// the same walk, returning the same error, for tests and one-shot
// callers. A root that does not validate returns Validate's error.
func (a *Allocation) CheckInvariants(root *Node) error {
	e, err := NewAllocator(root)
	if err != nil {
		return err
	}
	for i := range e.nodes {
		e.budgets[i] = a.NodeBudgets[e.nodes[i].node.ID]
	}
	e.infeasible = a.Infeasible
	return e.CheckInvariants()
}
