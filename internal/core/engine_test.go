package core

import (
	"errors"
	"reflect"
	"testing"

	"capmaestro/internal/power"
)

func recheckTree() *Node {
	return NewShifting("root", 1400,
		leaf("s0", "S0", 0, 1, 400),
		NewShifting("left", 750, leaf("a", "SA", 1, 1, 430), leaf("b", "SB", 0, 0.5, 430)),
		NewProxy("remote", failsafe(300)),
	)
}

func failsafe(b power.Watts) Summary {
	s := NewSummary()
	s.SetLevel(0, b, b, b)
	s.Constraint = b
	return s
}

// TestAllocatorRecheck: an untouched tree, and one whose leaf inputs
// moved within bounds, pass; an input Validate rejects fails with
// Validate's own error; anything that moved the layout is ErrStale.
func TestAllocatorRecheck(t *testing.T) {
	type edit func(root *Node)
	leafB := func(root *Node) *SupplyLeaf { return root.Children[1].Children[1].Leaf }
	valid := map[string]edit{
		"untouched":   func(*Node) {},
		"leaf inputs": func(r *Node) { l := leafB(r); l.Demand, l.Share, l.Priority, l.BudgetCap = 300, 1, 3, 280 },
		"new leaf struct behind the same node": func(r *Node) {
			l := *leafB(r)
			l.Demand = 310
			r.Children[1].Children[1].Leaf = &l
		},
		"proxy summary": func(r *Node) { *r.Children[2].Proxy = failsafe(350) },
	}
	for name, e := range valid {
		root := recheckTree()
		a, err := NewAllocator(root)
		if err != nil {
			t.Fatal(err)
		}
		e(root)
		if err := a.Recheck(); err != nil {
			t.Errorf("%s: Recheck = %v, want nil", name, err)
		}
	}

	invalid := map[string]edit{
		"share zero":         func(r *Node) { leafB(r).Share = 0 },
		"share above one":    func(r *Node) { leafB(r).Share = 1.01 },
		"negative cap min":   func(r *Node) { leafB(r).CapMin = -1 },
		"inverted envelope":  func(r *Node) { leafB(r).CapMax = 100 },
		"negative demand":    func(r *Node) { leafB(r).Demand = -0.5 },
		"empty supply ID":    func(r *Node) { leafB(r).SupplyID = "" },
		"empty server ID":    func(r *Node) { leafB(r).ServerID = "" },
		"empty leaf node ID": func(r *Node) { r.Children[0].ID = "" },
		"empty interior ID":  func(r *Node) { r.Children[1].ID = "" },
		"corrupt proxy":      func(r *Node) { r.Children[2].Proxy.Constraint = -1 },
	}
	for name, e := range invalid {
		root := recheckTree()
		a, err := NewAllocator(root)
		if err != nil {
			t.Fatal(err)
		}
		e(root)
		want := root.Validate()
		if want == nil {
			t.Fatalf("%s: the edit is supposed to invalidate the tree", name)
		}
		if err := a.Recheck(); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Recheck = %v, want Validate's %v", name, err, want)
		}
	}

	stale := map[string]edit{
		"child appended": func(r *Node) { r.Children = append(r.Children, leaf("n", "SN", 0, 1, 400)) },
		"child removed":  func(r *Node) { r.Children = r.Children[:2] },
		"child replaced": func(r *Node) { r.Children[0] = leaf("s0", "S0", 0, 1, 400) },
		"children reordered": func(r *Node) {
			c := r.Children[1].Children
			c[0], c[1] = c[1], c[0]
		},
		"grandchild appended": func(r *Node) {
			r.Children[1].Children = append(r.Children[1].Children, leaf("n", "SN", 0, 1, 400))
		},
		"limit edited":       func(r *Node) { r.Children[1].Limit = 600 },
		"limit lifted":       func(r *Node) { r.Limit = 0 },
		"leaf turned proxy":  func(r *Node) { n := r.Children[0]; n.Leaf, n.Proxy = nil, &Summary{} },
		"leaf turned hollow": func(r *Node) { r.Children[0].Leaf = nil },
		"interior given a leaf": func(r *Node) {
			r.Children[1].Leaf = &SupplyLeaf{SupplyID: "x", ServerID: "x", Share: 1, CapMax: 1}
		},
	}
	for name, e := range stale {
		root := recheckTree()
		a, err := NewAllocator(root)
		if err != nil {
			t.Fatal(err)
		}
		e(root)
		if err := a.Recheck(); !errors.Is(err, ErrStale) {
			t.Errorf("%s: Recheck = %v, want ErrStale", name, err)
		}
	}
}

// TestAllocatorRecheckAllocatesNothing: the check rides every rack
// period, so it must stay off the heap.
func TestAllocatorRecheckAllocatesNothing(t *testing.T) {
	a, err := NewAllocator(recheckTree())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.Recheck(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Recheck allocates %v times per call", allocs)
	}
}

// TestAllocatorNodeIndexLazy: the ID map is built by the first lookup,
// not by NewAllocator, and answers as it always did.
func TestAllocatorNodeIndexLazy(t *testing.T) {
	root := recheckTree()
	a, err := NewAllocator(root)
	if err != nil {
		t.Fatal(err)
	}
	if a.byID != nil {
		t.Error("NewAllocator built the ID map eagerly")
	}
	a.Run(1000, GlobalPriority)
	if a.byID != nil {
		t.Error("Run built the ID map")
	}
	want := a.Snapshot()
	seen := make(map[int]bool)
	root.Walk(func(n *Node) {
		i, ok := a.NodeIndex(n.ID)
		if !ok || seen[i] || a.NodeBudget(i) != want.NodeBudgets[n.ID] {
			t.Errorf("NodeIndex(%q) = %d, %t", n.ID, i, ok)
		}
		seen[i] = true
	})
	if len(seen) != a.Len() {
		t.Errorf("indexed %d nodes of %d", len(seen), a.Len())
	}
	if _, ok := a.NodeIndex("nobody"); ok {
		t.Error("NodeIndex found a node that is not there")
	}
}

// TestAllocatorSupplyBudgets: every leaf once, in flattened order, with
// the budgets Snapshot reports.
func TestAllocatorSupplyBudgets(t *testing.T) {
	a, err := NewAllocator(recheckTree())
	if err != nil {
		t.Fatal(err)
	}
	a.Run(1000, GlobalPriority)
	var order []string
	got := make(map[string]power.Watts)
	a.SupplyBudgets(func(id string, b power.Watts) {
		order = append(order, id)
		got[id] = b
	})
	if want := []string{"s0", "a", "b"}; !reflect.DeepEqual(order, want) {
		t.Errorf("leaf order %v, want %v", order, want)
	}
	if want := a.Snapshot().SupplyBudgets; !reflect.DeepEqual(got, want) {
		t.Errorf("supply budgets %v, want %v", got, want)
	}
}

// TestAllocatorRebind: a rebound Allocator — from the zero value, on to a
// larger, a smaller and a differently shaped tree, and back — allocates
// and indexes what a fresh one on that tree does, whatever it held before;
// a tree Validate rejects is refused with Validate's error and leaves the
// Allocator, last Run included, as it was.
func TestAllocatorRebind(t *testing.T) {
	wide := NewShifting("wide", 2000,
		leaf("w0", "W0", 2, 1, 400), leaf("w1", "W1", 1, 1, 430), leaf("w2", "W2", 0, 0.5, 430),
		NewShifting("sub", 700, leaf("w3", "W3", 1, 1, 430), leaf("w4", "W4", 0, 1, 430)),
		leaf("w5", "W5", 0, 1, 300),
	)
	small := NewShifting("small", 0, leaf("x", "X", 0, 1, 350))
	trees := []*Node{recheckTree(), wide, small, recheckTree(), wide}

	a := new(Allocator)
	for step, root := range trees {
		if err := a.Rebind(root); err != nil {
			t.Fatalf("step %d: Rebind = %v", step, err)
		}
		if a.Len() != len(root.Leaves())+countInterior(root) {
			t.Fatalf("step %d: %d nodes flattened", step, a.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if a.NodeBudget(i) != 0 {
				t.Errorf("step %d: node %d kept a budget across the rebind", step, i)
			}
		}
		for _, policy := range []Policy{NoPriority, LocalPriority, GlobalPriority} {
			for _, budget := range []power.Watts{0, 500, 900, 5000} {
				want := MustAllocate(root, budget, policy)
				a.Run(budget, policy)
				if got := a.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Errorf("step %d %v %v W: rebound %+v, fresh %+v", step, policy, budget, got, want)
				}
			}
			want, _ := Summarize(root, policy)
			if got := a.Summarize(policy); !reflect.DeepEqual(got.LevelMetrics(), want.LevelMetrics()) || got.Constraint != want.Constraint {
				t.Errorf("step %d %v: rebound summary %+v, fresh %+v", step, policy, got, want)
			}
		}
		root.Walk(func(n *Node) {
			if i, ok := a.NodeIndex(n.ID); !ok || a.nodes[i].node != n {
				t.Errorf("step %d: NodeIndex(%q) = %d, %t", step, n.ID, i, ok)
			}
		})
		if err := a.Recheck(); err != nil {
			t.Errorf("step %d: Recheck after Rebind = %v", step, err)
		}
	}

	a.Run(900, GlobalPriority)
	held := a.Snapshot()
	for name, bad := range map[string]*Node{
		"nil":          nil,
		"no children":  NewShifting("x", 0),
		"duplicate ID": NewShifting("x", 0, leaf("d", "D", 0, 1, 400), NewShifting("y", 0, leaf("d", "D", 0, 1, 400))),
		"bad share":    NewShifting("x", 0, leaf("d", "D", 0, 0, 400)),
	} {
		err := a.Rebind(bad)
		if err == nil {
			t.Errorf("Rebind(%s) succeeded", name)
			continue
		}
		if bad != nil {
			if want := bad.Validate(); want == nil || err.Error() != want.Error() {
				t.Errorf("Rebind(%s) = %v, want Validate's %v", name, err, want)
			}
		}
		if got := a.Snapshot(); !reflect.DeepEqual(got, held) {
			t.Errorf("a refused Rebind(%s) disturbed the last Run: %+v, want %+v", name, got, held)
		}
		if err := a.Recheck(); err != nil {
			t.Errorf("after a refused Rebind(%s) Recheck = %v", name, err)
		}
	}
}

func countInterior(root *Node) (n int) {
	root.Walk(func(m *Node) {
		if !m.IsLeaf() {
			n++
		}
	})
	return n
}

// TestAllocatorRebindAllocatesNothing: a caller that swaps trees every
// period pays for the validation and the flattening, not for garbage —
// and finds the scratch of its last pass still sized.
func TestAllocatorRebindAllocatesNothing(t *testing.T) {
	trees := [2]*Node{recheckTree(), recheckTree()}
	a := new(Allocator)
	swap := func(i int) {
		if err := a.Rebind(trees[i%2]); err != nil {
			t.Fatal(err)
		}
		a.Run(1000, GlobalPriority)
	}
	swap(0) // sizes the storage, the ID set and the scratch
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { i++; swap(i) }); allocs != 0 {
		t.Errorf("Rebind + Run allocates %v times per swap", allocs)
	}
}

// TestCheckInvariantsForms breaks each allocation rule in turn — a node
// over its limit, children summing past their parent, a leaf under its
// scaled minimum — and requires the engine form and the map form to
// report the identical error: the last violation in depth-first order.
func TestCheckInvariantsForms(t *testing.T) {
	valid := map[string]power.Watts{"root": 1300, "s0": 300, "left": 700, "a": 400, "b": 300, "remote": 300}
	for _, tc := range []struct {
		name       string
		edit       map[string]power.Watts
		infeasible bool
		want       string // "" for no violation
	}{
		{name: "valid"},
		{name: "over limit", edit: map[string]power.Watts{"left": 760, "root": 1360},
			want: `core: node "left" budget 760.0W exceeds limit 750.0W`},
		{name: "children over parent", edit: map[string]power.Watts{"a": 450},
			want: `core: node "left" children sum 750.0W exceeds budget 700.0W`},
		{name: "under minimum", edit: map[string]power.Watts{"s0": 200},
			want: `core: leaf "s0" budget 200.0W below scaled minimum 270.0W`},
		{name: "infeasible forgives minimum", edit: map[string]power.Watts{"s0": 200}, infeasible: true},
		{name: "last violation wins", edit: map[string]power.Watts{"s0": 200, "a": 450},
			want: `core: node "left" children sum 750.0W exceeds budget 700.0W`},
	} {
		tree := recheckTree()
		a, err := NewAllocator(tree)
		if err != nil {
			t.Fatal(err)
		}
		a.Run(0, GlobalPriority)
		alloc := &Allocation{NodeBudgets: make(map[string]power.Watts), Infeasible: tc.infeasible}
		a.infeasible = tc.infeasible
		for _, budgets := range []map[string]power.Watts{valid, tc.edit} {
			for id, b := range budgets {
				i, _ := a.NodeIndex(id)
				a.budgets[i] = b
				alloc.NodeBudgets[id] = b
			}
		}
		errString := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		engine, byMap := errString(a.CheckInvariants()), errString(alloc.CheckInvariants(tree))
		if engine != tc.want || byMap != tc.want {
			t.Errorf("%s: engine form %q, map form %q, want %q", tc.name, engine, byMap, tc.want)
		}
	}
}
