package core

import (
	"errors"
	"fmt"

	"capmaestro/internal/power"
)

// flatNode is one tree node's entry in an Allocator's flattened layout.
type flatNode struct {
	node *Node
	// childStart/childEnd delimit the node's children in the BFS-ordered
	// node array (children of one node are contiguous in BFS order).
	childStart, childEnd int
	// leafParent marks lowest-level shifting controllers (direct parents
	// of capping-controller endpoints), where LocalPriority collapses.
	leafParent bool
	// leaf and proxy record the node's kind when it was flattened; with
	// the child range and limit they are what Recheck compares the live
	// tree against.
	leaf, proxy bool
	limit       power.Watts // limitOrInf, precomputed
}

// Allocator is a reusable budgeting engine bound to one control tree. It
// flattens the tree into index-addressed arrays once (validating it once)
// and reuses all working storage — per-node summaries, budgets, and
// waterfill scratch — across passes, so a steady-state Run allocates
// nothing. This is the engine under the Monte Carlo capacity studies,
// where the same trees are re-budgeted tens of thousands of times with
// only leaf demands and priorities changing between runs.
//
// The Allocator reads the tree's leaves afresh on every Run, so callers
// may mutate leaf Demand, Priority, Share, and BudgetCap between runs.
// Structural changes (adding or removing nodes, editing a limit) and a
// move to another tree go through Rebind, which keeps the storage; a
// caller that does not control what happens to the tree between passes
// asks Recheck first. An Allocator is not safe for concurrent use;
// parallel studies run one replica per worker.
type Allocator struct {
	nodes      []flatNode      // BFS (top-down) order; index 0 is the root
	summaries  []Summary       // by node index; reused across runs
	budgets    []power.Watts   // by node index; the last Run's result
	byID       map[string]int  // built by the first NodeIndex call
	seen       map[string]bool // Rebind's ID set, kept between rebinds
	scratch    distScratch
	infeasible bool
	sink       ExplainSink // optional per-node audit stream; nil = free
}

// NewAllocator validates the tree and flattens it for repeated allocation.
func NewAllocator(root *Node) (*Allocator, error) {
	a := &Allocator{}
	if err := a.Rebind(root); err != nil {
		return nil, err
	}
	// Most allocators keep their tree for life (a Monte Carlo study's has
	// 100k nodes), so this one gives up the ID set a rebound one keeps.
	a.seen = nil
	return a, nil
}

// Rebind points the Allocator at another tree — or at its own after a
// structural edit — validating it in full as NewAllocator does, and
// re-flattens in place: node, summary, budget and waterfill storage and
// the validation's ID set are all kept, so alternating trees of one shape
// allocates nothing and the next pass runs as warm as the last. On error
// the Allocator stays as it was, last Run included; on success the last
// Run's results are gone. The zero Allocator is unbound and good for
// nothing but Rebind, which is how a caller expecting to rebind gets one
// that holds on to its ID set from the start.
func (a *Allocator) Rebind(root *Node) error {
	if root == nil {
		return fmt.Errorf("core: nil tree")
	}
	if a.seen == nil {
		a.seen = make(map[string]bool, len(a.nodes))
	}
	clear(a.seen)
	if err := root.validate(a.seen); err != nil {
		return err
	}
	n := len(a.seen) // IDs are unique: one per node
	if cap(a.nodes) < n {
		a.nodes = make([]flatNode, 0, n)
		a.summaries = make([]Summary, n)
		a.budgets = make([]power.Watts, n)
	}
	// Breadth-first layout, the array being its own queue: a node's
	// children occupy a contiguous index range, so child summaries and
	// budgets can be passed as slices.
	a.nodes = append(a.nodes[:0], flatNode{node: root})
	for i := 0; i < len(a.nodes); i++ {
		c := a.nodes[i].node
		fn := flatNode{
			node: c, leaf: c.IsLeaf(), proxy: c.Proxy != nil, limit: c.limitOrInf(),
			childStart: len(a.nodes),
		}
		for _, gc := range c.Children {
			a.nodes = append(a.nodes, flatNode{node: gc})
			fn.leafParent = fn.leafParent || gc.IsLeaf()
		}
		fn.childEnd = len(a.nodes)
		a.nodes[i] = fn
	}
	// Every gather rewrites a summary before reading it, so the slots'
	// level storage carries over whatever node they held before.
	a.summaries = a.summaries[:n]
	a.budgets = a.budgets[:n]
	clear(a.budgets)
	a.byID = nil
	a.infeasible = false
	return nil
}

// Len returns the number of tree nodes under the allocator.
func (a *Allocator) Len() int { return len(a.nodes) }

// NodeIndex returns the index of the node with the given ID. The ID map
// is built on the first call: a per-period caller that only ever walks
// its leaves (a rack worker) never pays for it.
func (a *Allocator) NodeIndex(id string) (int, bool) {
	if a.byID == nil {
		a.byID = make(map[string]int, len(a.nodes))
		for i := range a.nodes {
			a.byID[a.nodes[i].node.ID] = i
		}
	}
	i, ok := a.byID[id]
	return i, ok
}

// ErrStale is Recheck's report that the tree no longer has the layout the
// Allocator flattened: the answer is Rebind, which validates the edited
// tree in full.
var ErrStale = errors.New("core: tree restructured since its allocator was built")

// Recheck is for callers that do not own the tree, and so cannot know
// what was edited in place since NewAllocator validated it. Without
// allocating, it compares every node's kind, children and limit with the
// flattened layout, returning ErrStale on any difference, and applies
// Validate's per-node checks (non-empty IDs; leaf share, envelope and
// demand; proxy summaries) to the inputs the next pass will read,
// returning Validate's error for the first bad node in flattened order.
// ID uniqueness, which needs a map, is the one check it leaves to
// Rebind.
func (a *Allocator) Recheck() error {
	for i := range a.nodes {
		fn := &a.nodes[i]
		n := fn.node
		if n.IsLeaf() != fn.leaf || (n.Proxy != nil) != fn.proxy ||
			len(n.Children) != fn.childEnd-fn.childStart || n.limitOrInf() != fn.limit {
			return ErrStale
		}
		for k, c := range n.Children {
			if c != a.nodes[fn.childStart+k].node {
				return ErrStale
			}
		}
		if n.ID == "" {
			return errEmptyID
		}
		if err := n.validateLocal(); err != nil {
			return err
		}
	}
	return nil
}

// NodeBudget returns the budget the last Run assigned to node index i.
func (a *Allocator) NodeBudget(i int) power.Watts { return a.budgets[i] }

// Infeasible reports whether the last Run found some budget unable to
// cover the aggregate Pcap_min beneath it.
func (a *Allocator) Infeasible() bool { return a.infeasible }

// gather runs the metrics gathering phase bottom-up (reverse BFS order),
// leaving each node's reported summary — possibly priority-collapsed,
// depending on the policy — in a.summaries.
func (a *Allocator) gather(policy Policy) {
	for i := len(a.nodes) - 1; i >= 0; i-- {
		fn := &a.nodes[i]
		n := fn.node
		s := &a.summaries[i]
		switch {
		case n.Proxy != nil:
			// Externally summarized subtree (a remote worker's report).
			s.copyFrom(n.Proxy)
			if policy == NoPriority {
				s.collapseFrom(s)
			}
		case n.IsLeaf():
			leafMetricsInto(s, n.Leaf)
			if policy == NoPriority {
				s.collapseFrom(s)
			}
		default:
			combineInto(s, a.summaries[fn.childStart:fn.childEnd], fn.limit)
			// A Dynamo-style local policy reports priority-collapsed
			// metrics above the lowest shifting level; a No Priority
			// policy sees a single level everywhere (leaves already
			// collapsed).
			if policy == LocalPriority && fn.leafParent {
				s.collapseFrom(s)
			}
		}
	}
}

// Run performs one gather + budgeting pass under the given policy and root
// budget (non-positive uses the root constraint), reusing all scratch. It
// reports whether the allocation was infeasible; per-node results are read
// with NodeBudget/SupplyBudgets/Snapshot. Run never fails: the tree was
// validated when the Allocator was bound to it.
func (a *Allocator) Run(budget power.Watts, policy Policy) (infeasible bool) {
	a.gather(policy)
	a.infeasible = false

	rootSummary := &a.summaries[0]
	if budget <= 0 {
		budget = rootSummary.Constraint
	}
	budget = power.Min(budget, rootSummary.Constraint)
	if budget+epsilon < rootSummary.TotalCapMin() {
		a.infeasible = true
	}

	// Budgeting phase (Section 4.3.2), top-down in BFS order: each node's
	// budget is clamped to its constraint and split among its children
	// directly into their budget slots.
	a.budgets[0] = budget
	for i := range a.nodes {
		fn := &a.nodes[i]
		b := power.Min(a.budgets[i], a.summaries[i].Constraint)
		if b < 0 {
			b = 0
		}
		a.budgets[i] = b
		if fn.childStart == fn.childEnd {
			continue // leaf or proxy: the budget is the result
		}
		children := a.summaries[fn.childStart:fn.childEnd]
		if distributeInto(b, children, a.budgets[fn.childStart:fn.childEnd], &a.scratch) {
			a.infeasible = true
		}
	}
	if a.sink != nil {
		a.explainAll()
	}
	return a.infeasible
}

// Summarize runs the gathering phase only and returns a copy of the
// summary the root would report upstream under the given policy.
func (a *Allocator) Summarize(policy Policy) Summary {
	a.gather(policy)
	return a.summaries[0].Clone()
}

// SupplyBudgets calls fn with each supply leaf's ID and the budget the last
// Run assigned it, in flattened (top-down, left-to-right) leaf order.
func (a *Allocator) SupplyBudgets(fn func(supplyID string, budget power.Watts)) {
	for i := range a.nodes {
		if a.nodes[i].leaf {
			fn(a.nodes[i].node.Leaf.SupplyID, a.budgets[i])
		}
	}
}

// CheckInvariants verifies, for the simulator's safety monitor, that the
// last Run keeps every node within its limit and its children within its
// budget, and covers every leaf's scaled minimum unless infeasible. It
// walks depth-first and returns the last violation it meets.
func (a *Allocator) CheckInvariants() error {
	var err error
	a.check(0, &err)
	return err
}

// check is CheckInvariants at node index i, returning i's budget.
func (a *Allocator) check(i int, err *error) power.Watts {
	fn := &a.nodes[i]
	n, b := fn.node, a.budgets[i]
	if b > fn.limit+epsilon {
		*err = fmt.Errorf("core: node %q budget %v exceeds limit %v", n.ID, b, fn.limit)
	}
	if fn.leaf {
		if minNeeded := power.Watts(n.Leaf.Share) * n.Leaf.CapMin; !a.infeasible && b+epsilon < minNeeded {
			*err = fmt.Errorf("core: leaf %q budget %v below scaled minimum %v", n.ID, b, minNeeded)
		}
		return b
	}
	if fn.proxy {
		return b
	}
	var sum power.Watts
	for c := fn.childStart; c < fn.childEnd; c++ {
		sum += a.check(c, err)
	}
	if sum > b+epsilon {
		*err = fmt.Errorf("core: node %q children sum %v exceeds budget %v", n.ID, sum, b)
	}
	return b
}

// Snapshot materializes the last Run as a map-based Allocation, the
// portable result shape the one-shot Allocate API returns.
func (a *Allocator) Snapshot() *Allocation {
	res := &Allocation{
		SupplyBudgets: make(map[string]power.Watts),
		NodeBudgets:   make(map[string]power.Watts, len(a.nodes)),
		Infeasible:    a.infeasible,
	}
	for i := range a.nodes {
		n := a.nodes[i].node
		res.NodeBudgets[n.ID] = a.budgets[i]
		if n.IsLeaf() {
			res.SupplyBudgets[n.Leaf.SupplyID] = a.budgets[i]
		}
	}
	return res
}
