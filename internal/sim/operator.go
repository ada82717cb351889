package sim

import (
	"fmt"
	"sort"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/topology"
)

// This file is the simulator's day-2 operations surface: the commands an
// operator (or the scenario runner's event schedule) issues against a
// running fleet. Every command mutates the same state the control plane
// reads, so the next control period re-budgets through the real
// allocation path — there is no side door around core.Allocator.
//
//   - Cordon/Drain/Uncordon implement rolling maintenance on a
//     distribution subtree: cordon marks the servers beneath a node as
//     closed to new work, drain migrates their load away (utilization to
//     zero, remembering what it was), and uncordon restores both.
//   - SetNodeBudget overlays an operator-imposed watt limit on any
//     distribution node, tightening (never loosening) the derated
//     physical limit the allocator enforces — a subtree re-budget.
//
// LastControlTrees exposes the exact control trees and root budgets the
// most recent control period allocated against, so the refalloc oracle
// can re-derive the budgets independently and assert watt-exact
// agreement with what the simulator applied.

// serversUnder collects the sorted IDs of servers with at least one
// supply beneath the topology node.
func (s *Simulator) serversUnder(nodeID string) ([]string, error) {
	n := s.topo.Node(nodeID)
	if n == nil {
		return nil, fmt.Errorf("sim: unknown node %q", nodeID)
	}
	set := make(map[string]bool)
	n.Walk(func(m *topology.Node) bool {
		if m.Kind == topology.KindSupply {
			set[m.ServerID] = true
		}
		return true
	})
	if len(set) == 0 {
		return nil, fmt.Errorf("sim: node %q has no servers beneath it", nodeID)
	}
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Cordon marks every server beneath the node as cordoned: closed to new
// work placement. Cordoning is bookkeeping for the scheduler layer — the
// servers keep their current load and budgets until drained. Idempotent.
func (s *Simulator) Cordon(nodeID string) error {
	ids, err := s.serversUnder(nodeID)
	if err != nil {
		return err
	}
	for _, id := range ids {
		s.cordoned[id] = true
	}
	if s.log != nil {
		s.log.Info("operator: cordoned", "node", nodeID, "servers", len(ids), "t", s.now)
	}
	return nil
}

// Drain migrates load away from every server beneath the node: each
// server's utilization drops to zero and its pre-drain value is
// remembered for Uncordon. Draining requires the servers to be cordoned
// first — the scheduler must have stopped placing work before the load
// can be moved. Already-drained servers are left untouched, so a drain
// never overwrites the remembered utilization with zero.
func (s *Simulator) Drain(nodeID string) error {
	ids, err := s.serversUnder(nodeID)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if !s.cordoned[id] {
			return fmt.Errorf("sim: drain %q: server %q is not cordoned", nodeID, id)
		}
	}
	for _, id := range ids {
		if _, drained := s.drainedUtil[id]; drained {
			continue
		}
		srv := s.Server(id)
		s.drainedUtil[id] = srv.Utilization()
		srv.SetUtilization(0)
	}
	if s.log != nil {
		s.log.Info("operator: drained", "node", nodeID, "servers", len(ids), "t", s.now)
	}
	return nil
}

// Uncordon reopens every server beneath the node: drained servers get
// their remembered utilization back (the load migrates home) and the
// cordon flag clears. Idempotent.
func (s *Simulator) Uncordon(nodeID string) error {
	ids, err := s.serversUnder(nodeID)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if u, drained := s.drainedUtil[id]; drained {
			s.Server(id).SetUtilization(u)
			delete(s.drainedUtil, id)
		}
		delete(s.cordoned, id)
	}
	if s.log != nil {
		s.log.Info("operator: uncordoned", "node", nodeID, "servers", len(ids), "t", s.now)
	}
	return nil
}

// Cordoned reports whether a server is currently cordoned.
func (s *Simulator) Cordoned(serverID string) bool { return s.cordoned[serverID] }

// CordonedServers lists cordoned servers in sorted order.
func (s *Simulator) CordonedServers() []string {
	ids := make([]string, 0, len(s.cordoned))
	for id := range s.cordoned {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// DrainedServers lists drained servers in sorted order.
func (s *Simulator) DrainedServers() []string {
	ids := make([]string, 0, len(s.drainedUtil))
	for id := range s.drainedUtil {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SetNodeBudget overlays an operator-imposed budget (in watts) on a
// distribution node: from the next control period on, the allocator
// treats min(derated physical limit, budget) as the node's enforceable
// limit — a subtree re-budget that flows through the same allocation
// math as every physical constraint. A budget of 0 clears the overlay.
// Cutting a subtree below its current measured load opens an SLO
// exposure window, exactly as a root budget cut does.
func (s *Simulator) SetNodeBudget(nodeID string, budget power.Watts) error {
	n := s.topo.Node(nodeID)
	if n == nil {
		return fmt.Errorf("sim: unknown node %q", nodeID)
	}
	if n.Kind == topology.KindSupply {
		return fmt.Errorf("sim: node %q is a supply; budget distribution nodes instead", nodeID)
	}
	if budget < 0 {
		return fmt.Errorf("sim: node %q budget %v is negative", nodeID, budget)
	}
	s.rebind = true
	if budget == 0 {
		delete(s.nodeBudgets, nodeID)
		return nil
	}
	prev := s.nodeBudgets[nodeID]
	s.nodeBudgets[nodeID] = budget
	if (prev > 0 && budget < prev) || budget < s.NodeLoad(nodeID) {
		s.slo.RecordFault(s.now, "budget-cut:"+nodeID)
	}
	if s.log != nil {
		s.log.Info("operator: node budget set", "node", nodeID, "watts", float64(budget), "t", s.now)
	}
	return nil
}

// NodeBudget returns the operator budget overlay on a node, if any.
func (s *Simulator) NodeBudget(nodeID string) (power.Watts, bool) {
	b, ok := s.nodeBudgets[nodeID]
	return b, ok
}

// NodeBudgetOverlays returns a copy of all operator budget overlays.
func (s *Simulator) NodeBudgetOverlays() map[string]power.Watts {
	m := make(map[string]power.Watts, len(s.nodeBudgets))
	for id, b := range s.nodeBudgets {
		m[id] = b
	}
	return m
}

// applyNodeBudgets tightens a freshly built control tree's limits with
// the operator overlays: an overlay below the derated physical limit
// (or on an unlimited node) becomes the node's enforceable limit.
// Overlays never loosen a physical limit — the breaker is still there.
func (s *Simulator) applyNodeBudgets(tree *core.Node) {
	if len(s.nodeBudgets) == 0 {
		return
	}
	tree.Walk(func(n *core.Node) {
		if n.IsLeaf() {
			return
		}
		if b, ok := s.nodeBudgets[n.ID]; ok && (n.Limit <= 0 || b < n.Limit) {
			n.Limit = b
		}
	})
}

// LastControlTrees returns the control trees, root budgets, and feeds the
// most recent control period allocated against (nil before the first
// period). The trees are the allocator's actual input — operator
// overlays applied, dead supplies and the subtrees and trees with nothing
// live in them left out — so running the refalloc reference over them
// must reproduce the simulator's applied budgets watt-for-watt.
//
// They are copies, made on the first call after each period: the
// simulator's own trees are rewritten in place every period.
func (s *Simulator) LastControlTrees() (trees []*core.Node, budgets []power.Watts, feeds []topology.FeedID) {
	build := s.lastTrees == nil
	for i, t := range s.trees {
		if !s.treeLive[i] {
			continue
		}
		if build {
			s.lastTrees = append(s.lastTrees, cloneLive(t))
		}
		budgets = append(budgets, s.treeBudgets[i])
		feeds = append(feeds, s.treeFeeds[i])
	}
	return s.lastTrees, budgets, feeds
}

// cloneLive deep-copies the live part of a control tree, leaves included:
// nil for a dead leaf and for a subtree with no live leaf.
func cloneLive(n *core.Node) *core.Node {
	c := *n
	if n.Leaf != nil {
		if n.Leaf.Share == 0 {
			return nil
		}
		l := *n.Leaf
		c.Leaf = &l
		return &c
	}
	c.Children = nil
	for _, child := range n.Children {
		if cc := cloneLive(child); cc != nil {
			c.Children = append(c.Children, cc)
		}
	}
	if c.Children == nil {
		return nil
	}
	return &c
}

// SPOEnabled reports whether the stranded power optimization pass runs.
func (s *Simulator) SPOEnabled() bool { return s.spo }

// Policy returns the allocation policy the simulator budgets with.
func (s *Simulator) Policy() core.Policy { return s.policy }

// RootBudget returns the contractual budget of a feed (0 = unbudgeted).
func (s *Simulator) RootBudget(feed topology.FeedID) power.Watts {
	if s.rootBudgets == nil {
		return 0
	}
	return s.rootBudgets[feed]
}

// ControlPeriod returns the control period length.
func (s *Simulator) ControlPeriod() time.Duration { return s.period }
