// Package core implements CapMaestro's primary contribution: the power
// control tree of shifting and capping controllers that mirrors the power
// distribution hierarchy, the scalable global priority-aware power capping
// algorithm (Section 4.3), the baseline policies it is evaluated against
// (a No Priority policy and a Dynamo-style Local Priority policy,
// Section 6.2), and the stranded power optimization (Section 4.4).
//
// The package operates on a Tree of nodes: internal nodes are shifting
// controllers, each mapped to a physical distribution point (transformer,
// RPP, CDU phase, ...) with an enforceable power limit; leaves are
// per-power-supply endpoints of capping controllers, carrying the server's
// controllable envelope, its estimated demand, its priority, and the
// fraction r of the server load the supply bears. An N+N data center runs
// one tree per feed and phase; a server's capping controller appears as a
// leaf in each tree that one of its supplies connects to.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"capmaestro/internal/power"
	"capmaestro/internal/topology"
)

// Priority is a workload priority level; larger values are more important.
type Priority int

// SupplyLeaf is the per-supply view a capping controller contributes to one
// control tree (the paper's "level 1" node).
type SupplyLeaf struct {
	SupplyID string
	ServerID string
	Priority Priority

	// Share is r: the fraction of the server's load this supply carries
	// under the current supply states.
	Share float64

	// CapMin, CapMax, and Demand are whole-server AC values: the
	// controllable envelope [Pcap_min(0), Pcap_max(0)] and the estimated
	// full-performance demand Pdemand(0). The leaf scales them by Share.
	CapMin power.Watts
	CapMax power.Watts
	Demand power.Watts

	// BudgetCap, when positive, limits the budget this supply may be
	// assigned. The stranded power optimization sets it on supplies whose
	// budget would otherwise exceed what the supply can draw.
	BudgetCap power.Watts
}

// Node is one node of a control tree: a shifting controller when it has
// children, a capping-controller endpoint when Leaf is set, or a stand-in
// for a remotely summarized subtree when Proxy is set (used by the
// distributed control plane: a room-level worker sees each rack worker's
// subtree as a proxy carrying only its reported Summary).
type Node struct {
	ID       string
	Limit    power.Watts // Plimit; +Inf (or 0 meaning unlimited) if none
	Children []*Node
	Leaf     *SupplyLeaf
	Proxy    *Summary
}

// NewShifting creates a shifting-controller node. A non-positive limit
// means the node enforces no limit of its own.
func NewShifting(id string, limit power.Watts, children ...*Node) *Node {
	return &Node{ID: id, Limit: limit, Children: children}
}

// NewLeaf creates a capping-controller endpoint node.
func NewLeaf(id string, leaf SupplyLeaf) *Node {
	return &Node{ID: id, Leaf: &leaf}
}

// NewProxy creates a node standing in for a remote worker's subtree,
// carrying the summary that worker reported. After budgeting, the proxy's
// budget (Allocation.NodeBudgets[id]) is what the remote worker should
// distribute locally.
func NewProxy(id string, summary Summary) *Node {
	return &Node{ID: id, Proxy: &summary}
}

// limitOrInf normalizes the node's limit: non-positive means unlimited.
func (n *Node) limitOrInf() power.Watts {
	if n.Limit <= 0 {
		return power.Watts(math.Inf(1))
	}
	return n.Limit
}

// IsLeaf reports whether the node is a capping-controller endpoint.
func (n *Node) IsLeaf() bool { return n.Leaf != nil }

// Walk visits the node and its descendants in depth-first preorder.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Leaves returns the supply-leaf nodes of the subtree in tree order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// errEmptyID is Validate's complaint about a node without an ID.
var errEmptyID = errors.New("core: node with empty ID")

// Validate checks structural invariants: unique IDs, leaves with valid
// supply data, internal nodes with at least one child.
func (n *Node) Validate() error {
	return n.validate(make(map[string]bool))
}

// validate is Validate over the subtree at m, depth-first, with the IDs
// met so far in seen; Allocator.Rebind brings a set it keeps.
func (m *Node) validate(seen map[string]bool) error {
	if m.ID == "" {
		return errEmptyID
	}
	if seen[m.ID] {
		return fmt.Errorf("core: duplicate node ID %q", m.ID)
	}
	seen[m.ID] = true
	if err := m.validateLocal(); err != nil {
		return err
	}
	for _, c := range m.Children {
		if err := c.validate(seen); err != nil {
			return err
		}
	}
	return nil
}

// validateLocal checks what Validate can decide from the node alone (its
// ID aside): a proxy's or leaf's shape and inputs, an internal node's
// having children. Allocator.Recheck shares it, so an input edited in
// place fails a pass with the error Validate would have given.
func (m *Node) validateLocal() error {
	if m.Proxy != nil {
		if len(m.Children) > 0 || m.Leaf != nil {
			return fmt.Errorf("core: proxy %q must not have children or a leaf", m.ID)
		}
		return m.Proxy.Validate()
	}
	if m.IsLeaf() {
		if len(m.Children) > 0 {
			return fmt.Errorf("core: leaf %q has children", m.ID)
		}
		l := m.Leaf
		switch {
		case l.SupplyID == "":
			return fmt.Errorf("core: leaf %q has empty supply ID", m.ID)
		case l.ServerID == "":
			return fmt.Errorf("core: leaf %q has empty server ID", m.ID)
		case l.Share <= 0 || l.Share > 1:
			return fmt.Errorf("core: leaf %q share %v out of (0,1]", m.ID, l.Share)
		case l.CapMin < 0 || l.CapMax < l.CapMin:
			return fmt.Errorf("core: leaf %q envelope [%v,%v] invalid", m.ID, l.CapMin, l.CapMax)
		case l.Demand < 0:
			return fmt.Errorf("core: leaf %q negative demand", m.ID)
		}
		return nil
	}
	if len(m.Children) == 0 {
		return fmt.Errorf("core: shifting controller %q has no children", m.ID)
	}
	return nil
}

// LeafInfo supplies per-server data when building a control tree from a
// physical topology: the server's priority, controllable envelope, current
// demand estimate, and the supply's current share r.
type LeafInfo struct {
	Priority Priority
	CapMin   power.Watts
	CapMax   power.Watts
	Demand   power.Watts
	Share    float64 // current share for this supply; ≤0 keeps the topology split
}

// LeafSource resolves the LeafInfo for a supply node encountered while
// building a tree. Returning ok=false omits the supply from the tree
// (e.g. a failed supply).
type LeafSource func(supplyID, serverID string) (LeafInfo, bool)

// BuildTree converts a physical topology subtree into a control tree,
// applying the derating policy to obtain each shifting controller's
// enforceable limit. Chain nodes with a single child are preserved so the
// control tree mirrors the physical hierarchy exactly, as the paper's
// design prescribes. Subtrees containing no (working) supplies are pruned.
func BuildTree(root *topology.Node, derating topology.Derating, src LeafSource) (*Node, error) {
	if root == nil {
		return nil, fmt.Errorf("core: nil topology root")
	}
	node, err := buildNode(root, derating, src)
	if err != nil {
		return nil, err
	}
	if node == nil {
		return nil, fmt.Errorf("core: topology %q contains no working supplies", root.ID)
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	return node, nil
}

func buildNode(t *topology.Node, derating topology.Derating, src LeafSource) (*Node, error) {
	if t.Kind == topology.KindSupply {
		info, ok := src(t.ID, t.ServerID)
		if !ok {
			return nil, nil
		}
		share := info.Share
		if share <= 0 {
			share = t.Split
		}
		return NewLeaf(t.ID, SupplyLeaf{
			SupplyID: t.ID,
			ServerID: t.ServerID,
			Priority: info.Priority,
			Share:    share,
			CapMin:   info.CapMin,
			CapMax:   info.CapMax,
			Demand:   info.Demand,
		}), nil
	}
	var children []*Node
	for _, c := range t.Children() {
		built, err := buildNode(c, derating, src)
		if err != nil {
			return nil, err
		}
		if built != nil {
			children = append(children, built)
		}
	}
	if len(children) == 0 {
		return nil, nil
	}
	limit := derating.Limit(t)
	if math.IsInf(float64(limit), 1) {
		limit = 0 // normalized "unlimited"
	}
	return NewShifting(t.ID, limit, children...), nil
}

// prioritiesIn returns the distinct leaf priorities of the subtree in
// descending order (highest priority first).
func prioritiesIn(n *Node) []Priority {
	set := make(map[Priority]struct{})
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			set[m.Leaf.Priority] = struct{}{}
		}
	})
	out := make([]Priority, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}
