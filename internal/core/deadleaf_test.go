package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"capmaestro/internal/power"
)

// randomFeedTrees builds 1–3 control trees over a random server
// population: interior nodes hang under random earlier ones, with no
// limit, a loose one or a tight one, and each server cords into one tree
// or two with a random split, its leaves under random interior nodes.
// Budgets range from infeasible to unconstrained.
func randomFeedTrees(rng *rand.Rand) ([]*Node, []power.Watts) {
	nTrees := 1 + rng.Intn(3)
	interiors := make([][]*Node, nTrees)
	for t := range interiors {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			node := NewShifting(fmt.Sprintf("t%d-n%d", t, i), 0)
			if rng.Intn(3) > 0 {
				node.Limit = power.Watts(200 + rng.Float64()*2500)
			}
			if i > 0 {
				p := interiors[t][rng.Intn(i)]
				p.Children = append(p.Children, node)
			}
			interiors[t] = append(interiors[t], node)
		}
	}
	addLeaf := func(t int, l SupplyLeaf) {
		p := interiors[t][rng.Intn(len(interiors[t]))]
		p.Children = append(p.Children, NewLeaf(l.SupplyID, l))
	}
	for s := 0; s < 4+rng.Intn(11); s++ {
		capMin := power.Watts(150 + rng.Float64()*150)
		l := SupplyLeaf{
			ServerID: fmt.Sprintf("s%02d", s),
			Priority: Priority(rng.Intn(4)),
			CapMin:   capMin,
			CapMax:   capMin + power.Watts(50+rng.Float64()*300),
			Demand:   power.Watts(rng.Float64() * 700),
			Share:    1,
		}
		a := rng.Intn(nTrees)
		if b := rng.Intn(nTrees); b != a && rng.Intn(3) > 0 {
			r := 0.3 + 0.4*rng.Float64()
			x, y := l, l
			x.SupplyID, x.Share = l.ServerID+"-a", r
			y.SupplyID, y.Share = l.ServerID+"-b", 1-r
			addLeaf(a, x)
			addLeaf(b, y)
			continue
		}
		l.SupplyID = l.ServerID + "-a"
		addLeaf(a, l)
	}
	var (
		trees   []*Node
		budgets []power.Watts
	)
	for t := range interiors {
		if root := prune(interiors[t][0]); root != nil {
			trees = append(trees, root)
			budgets = append(budgets, power.Watts(rng.Float64()*4000))
		}
	}
	return trees, budgets
}

// prune drops the interior nodes with no leaf beneath them, which do not
// validate; nil when n has none.
func prune(n *Node) *Node {
	if n.IsLeaf() {
		return n
	}
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c = prune(c); c != nil {
			kept = append(kept, c)
		}
	}
	n.Children = kept
	if len(kept) == 0 {
		return nil
	}
	return n
}

// cloneNode deep-copies a tree, leaves included.
func cloneNode(n *Node) *Node {
	c := *n
	if n.Leaf != nil {
		l := *n.Leaf
		c.Leaf = &l
	}
	c.Children = nil
	for _, ch := range n.Children {
		c.Children = append(c.Children, cloneNode(ch))
	}
	return &c
}

// insertDead returns copies of the trees with dead leaves (Share 0) at
// random priorities inserted at random positions under random interior
// nodes — each a dead cord of a server already in the trees or of a new
// one — plus a limited subtree of dead leaves and a tree of nothing but
// dead leaves. budgets gets the dead tree's entry.
func insertDead(rng *rand.Rand, trees []*Node, budgets []power.Watts) ([]*Node, []power.Watts) {
	var (
		out      []*Node
		servers  []*SupplyLeaf
		interior []*Node
	)
	for _, t := range trees {
		c := cloneNode(t)
		c.Walk(func(n *Node) {
			if n.IsLeaf() {
				servers = append(servers, n.Leaf)
			} else {
				interior = append(interior, n)
			}
		})
		out = append(out, c)
	}
	k := 0
	dead := func() *Node {
		k++
		var l SupplyLeaf
		if rng.Intn(2) == 0 {
			l = *servers[rng.Intn(len(servers))]
		} else {
			l = SupplyLeaf{ServerID: fmt.Sprintf("dead%d", k), CapMin: 200, CapMax: 450, Demand: 400}
		}
		l.SupplyID = fmt.Sprintf("dead%d-%s", k, l.ServerID)
		l.Share, l.Priority, l.BudgetCap = 0, Priority(rng.Intn(6)), 0
		return NewLeaf(l.SupplyID, l)
	}
	insert := func(c *Node) {
		p := interior[rng.Intn(len(interior))]
		i := rng.Intn(len(p.Children) + 1)
		p.Children = append(p.Children[:i], append([]*Node{c}, p.Children[i:]...)...)
	}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		insert(dead())
	}
	insert(NewShifting(fmt.Sprintf("dead-sub%d", k), power.Watts(50+rng.Float64()*500), dead(), dead()))
	i := rng.Intn(len(out) + 1)
	out = append(out[:i], append([]*Node{NewShifting("dead-tree", 300, dead(), NewShifting("dead-tree-sub", 0, dead()))}, out[i:]...)...)
	budgets = append(budgets[:i:i], append([]power.Watts{power.Watts(rng.Float64() * 1000)}, budgets[i:]...)...)
	return out, budgets
}

// collect returns a sink appending explain records to *log, in order.
func collect(log *[]NodeExplain) ExplainSink {
	return ExplainFunc(func(e NodeExplain) { *log = append(*log, e) })
}

// TestDeadLeafInsertionRelation: a dead leaf is data, not shape. Inserting
// Share-0 leaves — at any priority, anywhere, as whole dead subtrees and
// as an all-dead tree — changes nothing for anything else: every live
// node's budget, every explain record and its order, each Snapshot, the
// SPO report and the infeasibility verdicts stay ==, through an Allocator
// and through a FeedSet with and without SPO, under every policy.
func TestDeadLeafInsertionRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	policies := []Policy{NoPriority, LocalPriority, GlobalPriority}
	for iter := 0; iter < 400; iter++ {
		trees, budgets := randomFeedTrees(rng)
		if len(trees) == 0 {
			continue
		}
		withDead, deadBudgets := insertDead(rng, trees, budgets)
		// liveAt maps the trees to their places among withDead.
		var liveAt []int
		for i, tr := range withDead {
			if tr.ID != "dead-tree" {
				liveAt = append(liveAt, i)
			}
		}
		for _, pol := range policies {
			for i, tr := range trees {
				want, wantEx := runAllocator(t, tr, budgets[i], pol)
				got, gotEx := runAllocator(t, withDead[liveAt[i]], budgets[i], pol)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("iter %d %v tree %d: with dead leaves %+v, without %+v", iter, pol, i, got, want)
				}
				if !reflect.DeepEqual(gotEx, wantEx) {
					t.Fatalf("iter %d %v tree %d: explains with dead leaves\n%+v\nwithout\n%+v", iter, pol, i, gotEx, wantEx)
				}
			}
			for _, spo := range []bool{false, true} {
				var want, got FeedSet
				if err := want.Rebind(trees); err != nil {
					t.Fatal(err)
				}
				if err := got.Rebind(withDead); err != nil {
					t.Fatal(err)
				}
				var wantEx, gotEx []NodeExplain
				want.Run(budgets, pol, spo, collect(&wantEx))
				got.Run(deadBudgets, pol, spo, collect(&gotEx))
				where := fmt.Sprintf("iter %d %v spo %t", iter, pol, spo)
				if !reflect.DeepEqual(gotEx, wantEx) {
					t.Fatalf("%s: explains with dead leaves\n%+v\nwithout\n%+v", where, gotEx, wantEx)
				}
				if !reflect.DeepEqual(got.Report(), want.Report()) {
					t.Fatalf("%s: SPO report with dead leaves %+v, without %+v", where, got.Report(), want.Report())
				}
				for i, j := range liveAt {
					w, g := want.Engine(i), got.Engine(j)
					if g.Infeasible() != w.Infeasible() {
						t.Fatalf("%s tree %d: infeasible %t with dead leaves, %t without", where, i, g.Infeasible(), w.Infeasible())
					}
					trees[i].Walk(func(n *Node) {
						wi, _ := w.NodeIndex(n.ID)
						gi, _ := g.NodeIndex(n.ID)
						if g.NodeBudget(gi) != w.NodeBudget(wi) {
							t.Fatalf("%s: node %s budget %v with dead leaves, %v without", where, n.ID, g.NodeBudget(gi), w.NodeBudget(wi))
						}
					})
					if !reflect.DeepEqual(g.Snapshot(), w.Snapshot()) {
						t.Fatalf("%s tree %d: Snapshot differs with dead leaves", where, i)
					}
				}
			}
		}
	}
}

// runAllocator budgets one tree on a fresh Allocator, returning its
// Snapshot and explain records.
func runAllocator(t *testing.T, tree *Node, budget power.Watts, pol Policy) (*Allocation, []NodeExplain) {
	t.Helper()
	a, err := NewAllocator(tree)
	if err != nil {
		t.Fatal(err)
	}
	var ex []NodeExplain
	a.SetExplainSink(collect(&ex))
	a.Run(budget, pol)
	return a.Snapshot(), ex
}

// TestDeadLeafGathersEmpty: a dead leaf reports no constraint and no
// priority level under every policy, receives 0 and passes the invariant
// check; a FeedSet run skips a tree with nothing live and leaves no SPO
// report.
func TestDeadLeafGathersEmpty(t *testing.T) {
	live := leaf("a", "A", 1, 1, 400)
	dead := leaf("b", "B", 7, 0, 400)
	tree := NewShifting("r", 0, live, NewShifting("sub", 500, dead))
	for _, pol := range []Policy{NoPriority, LocalPriority, GlobalPriority} {
		a, err := NewAllocator(tree)
		if err != nil {
			t.Fatal(err)
		}
		a.Run(0, pol)
		for _, id := range []string{"b", "sub"} {
			i, _ := a.NodeIndex(id)
			if s := a.summaries[i]; s.Constraint != 0 || len(s.levels) != 0 {
				t.Errorf("%v: %s gathers %+v, want an empty summary", pol, id, s)
			}
			if b := a.NodeBudget(i); b != 0 {
				t.Errorf("%v: %s granted %v, want 0", pol, id, b)
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
	var f FeedSet
	if err := f.Rebind([]*Node{tree}); err != nil {
		t.Fatal(err)
	}
	f.Run(nil, GlobalPriority, true, nil)
	granted := f.Engine(0).NodeBudget(0)
	if granted == 0 || f.Report() == nil {
		t.Fatalf("live tree: root granted %v, report %+v", granted, f.Report())
	}
	live.Leaf.Share = 0
	f.Run(nil, GlobalPriority, true, nil)
	if got := f.Engine(0).NodeBudget(0); got != granted || f.Report() != nil {
		t.Errorf("all-dead tree: root budget %v (want %v: not run again), report %+v (want nil)", got, granted, f.Report())
	}
}
