package core

import (
	"capmaestro/internal/power"
)

// Clamp identifies which bound produced a node's granted budget — the
// per-decision attribution operators need before they trust an
// oversubscribed allocation ("why is this server throttled?").
type Clamp string

// Clamp outcomes, from most to least comfortable.
const (
	// ClampDemand: the grant covers the node's full (CapMax-clamped)
	// demand — the node got everything it could use; the budget was
	// clamped down to demand, not the other way around.
	ClampDemand Clamp = "demand"
	// ClampCap: the grant is pinned at the node's own constraint (its
	// breaker/derated limit, or an SPO budget cap) — more budget existed
	// upstream but this node cannot safely absorb it.
	ClampCap Clamp = "cap"
	// ClampShare: the grant is below both demand and constraint — the
	// node lost the proportional-share contest at some ancestor to
	// higher-priority or heavier siblings.
	ClampShare Clamp = "share"
	// ClampInfeasible: the budget above could not even cover the
	// aggregate Pcap_min below; minimums were scaled down and nothing is
	// guaranteed.
	ClampInfeasible Clamp = "infeasible"
)

// ExplainPhase identifies which allocation pass produced a node's final
// grant.
type ExplainPhase string

// Phases of AllocateWithSPO; plain Allocator runs are always "preferred".
const (
	// PhasePreferred: the grant came from the ordinary preferred-share
	// budgeting pass (Section 4.3.2).
	PhasePreferred ExplainPhase = "preferred"
	// PhaseSPO: the grant was changed by the stranded-power
	// redistribution pass (Section 4.4) — either a donor pinned down to
	// its usable watts, or a recipient of the freed power.
	PhaseSPO ExplainPhase = "spo"
)

// NodeExplain is the audit record for one tree node in one budgeting pass:
// what the node reported (demand, minimum, request, constraint), what it
// was granted, and which bound and phase produced the grant.
type NodeExplain struct {
	NodeID   string `json:"node"`
	SupplyID string `json:"supply,omitempty"`
	ServerID string `json:"server,omitempty"`
	Leaf     bool   `json:"leaf,omitempty"`
	// Priority is the leaf's priority, or the highest priority present
	// beneath an interior node.
	Priority   Priority     `json:"priority"`
	Demand     power.Watts  `json:"demand"`
	CapMin     power.Watts  `json:"cap_min"`
	Request    power.Watts  `json:"request"`
	Constraint power.Watts  `json:"constraint"`
	Granted    power.Watts  `json:"granted"`
	Clamp      Clamp        `json:"clamp"`
	Phase      ExplainPhase `json:"phase"`
}

// ExplainSink receives one NodeExplain per tree node after each budgeting
// pass. Sinks are consulted synchronously from Run; a nil sink costs one
// branch per Run and zero allocations.
type ExplainSink interface {
	Explain(NodeExplain)
}

// ExplainFunc adapts a function to the ExplainSink interface.
type ExplainFunc func(NodeExplain)

// Explain implements ExplainSink.
func (f ExplainFunc) Explain(e NodeExplain) { f(e) }

// SetExplainSink attaches an explain sink consulted after every Run; nil
// (the default) detaches it and restores the allocation-free hot path.
func (a *Allocator) SetExplainSink(s ExplainSink) { a.sink = s }

// explainAll emits one NodeExplain per live node for the last Run, in BFS
// (top-down) order. Only called when a sink is attached.
func (a *Allocator) explainAll() {
	live := a.liveNodes(a.alive)
	if live != nil {
		a.alive = live
	}
	for i := range a.nodes {
		if live != nil && !live[i] {
			continue
		}
		n := a.nodes[i].node
		s := &a.summaries[i]
		e := NodeExplain{
			NodeID:     n.ID,
			Demand:     s.TotalDemand(),
			CapMin:     s.TotalCapMin(),
			Request:    s.TotalRequest(),
			Constraint: s.Constraint,
			Granted:    a.budgets[i],
			Phase:      PhasePreferred,
		}
		switch {
		case n.IsLeaf():
			e.Leaf = true
			e.SupplyID = n.Leaf.SupplyID
			e.ServerID = n.Leaf.ServerID
			e.Priority = n.Leaf.Priority
		case len(s.levels) > 0:
			e.Priority = s.levels[0].Priority
		}
		e.Clamp = classifyClamp(a.budgets[i], s, a.infeasible)
		if a.phaseBase != nil && !power.ApproxEqual(e.Granted, a.phaseBase[i], epsilon) {
			e.Phase = PhaseSPO
		}
		a.sink.Explain(e)
	}
}

// classifyClamp attributes a grant to the tightest bound that produced it.
func classifyClamp(granted power.Watts, s *Summary, infeasible bool) Clamp {
	if infeasible && granted+epsilon < s.TotalCapMin() {
		return ClampInfeasible
	}
	demand := s.TotalDemand()
	// A grant sitting at a constraint that is at least as tight as demand
	// is cap-bound; this includes SPO donors, whose BudgetCap collapses
	// demand and constraint onto the usable watts.
	if granted+epsilon >= s.Constraint && s.Constraint <= demand+epsilon {
		return ClampCap
	}
	if granted+epsilon >= demand {
		return ClampDemand
	}
	return ClampShare
}

// AllocateExplained is Allocate with a per-node explanation stream: sink
// (may be nil) receives one NodeExplain per tree node for the pass that
// produced the returned allocation. Like Allocate it is one-shot: tests,
// examples and oracles — a per-period caller holds an Allocator and uses
// SetExplainSink.
func AllocateExplained(root *Node, budget power.Watts, policy Policy, sink ExplainSink) (*Allocation, error) {
	a, err := NewAllocator(root)
	if err != nil {
		return nil, err
	}
	a.SetExplainSink(sink)
	a.Run(budget, policy)
	return a.Snapshot(), nil
}
