package core

import (
	"fmt"
	"math"
	"sort"

	"capmaestro/internal/power"
)

// StrandedSupply records stranded power detected on one supply.
type StrandedSupply struct {
	SupplyID string
	ServerID string
	Budget   power.Watts // budget assigned by the first pass
	Usable   power.Watts // what the supply can actually draw
	Stranded power.Watts // Budget − Usable
}

// SPOReport summarizes one stranded power optimization run.
type SPOReport struct {
	// Stranded lists the supplies whose first-pass budgets exceeded what
	// the server's intrinsic load split lets them draw, sorted by supply.
	Stranded []StrandedSupply
	// TotalStranded is the power freed for re-budgeting, summed over
	// supplies.
	TotalStranded power.Watts
}

// FeedSet is the one implementation of the stranded power optimization of
// Section 4.4, on persistent engines: one Allocator per control tree (one
// per feed and phase) and every tree's supply leaves grouped by server,
// both built at Rebind. A Run budgets every tree; with SPO it then pins
// each supply whose budget the server's intrinsic load split leaves
// unusable at what it can use, and runs every engine again so the freed
// power reaches servers the first pass capped. Like an Allocator it reads
// leaf fields afresh on every Run, so an owner of the trees edits them in
// place and rebinds only when a tree's shape or a limit changes; a steady
// Run allocates nothing. A supply failure is such an edit — its leaf's
// Share drops to 0 — and a tree whose leaves are all dead is skipped.
// AllocateAll, AllocateWithSPO and PredictConsumption are one-shot
// wrappers over it.
type FeedSet struct {
	engines []*Allocator // engines[:n] are bound; the rest keep storage
	n       int
	live    []bool    // by tree: the running pass found a live leaf or proxy
	leaves  []spoLeaf // by server ID, then tree, then preorder
	bounds  []int     // server k's leaves are leaves[bounds[k]:bounds[k+1]]
	pins    []spoPin  // the BudgetCaps the running detection set
	first   []power.Watts
	spo     bool // the last Run ran the optimization
	report  SPOReport
}

// spoLeaf is one supply leaf and its slot: node index node of engine tree.
type spoLeaf struct {
	leaf       *SupplyLeaf
	tree, node int
}

// spoPin is a BudgetCap set on a stranded supply and the value it replaced.
type spoPin struct {
	leaf *SupplyLeaf
	old  power.Watts
}

// Rebind binds the set to trees, one engine each, validating every tree
// as NewAllocator does and keeping the engines' storage, and rebuilds the
// server table. On error the set is left empty.
func (f *FeedSet) Rebind(trees []*Node) error {
	f.n, f.spo = 0, false
	f.leaves, f.bounds = f.leaves[:0], f.bounds[:0]
	for i, t := range trees {
		if i == len(f.engines) {
			f.engines = append(f.engines, &Allocator{})
		}
		if err := f.engines[i].Rebind(t); err != nil {
			f.leaves = f.leaves[:0]
			return fmt.Errorf("core: tree %d: %w", i, err)
		}
		t.Walk(func(n *Node) {
			if n.IsLeaf() {
				j, _ := f.engines[i].NodeIndex(n.ID)
				f.leaves = append(f.leaves, spoLeaf{leaf: n.Leaf, tree: i, node: j})
			}
		})
	}
	sort.SliceStable(f.leaves, func(i, j int) bool { return f.leaves[i].leaf.ServerID < f.leaves[j].leaf.ServerID })
	for k := range f.leaves {
		if k == 0 || f.leaves[k].leaf.ServerID != f.leaves[k-1].leaf.ServerID {
			f.bounds = append(f.bounds, k)
		}
	}
	f.bounds = append(f.bounds, len(f.leaves))
	f.n = len(trees)
	return nil
}

// Engine returns the Allocator bound to tree i; after a Run in which the
// tree had a live leaf (or a proxy) it holds that tree's budgets of the
// pass that stands.
func (f *FeedSet) Engine(i int) *Allocator { return f.engines[:f.n][i] }

// Run budgets each live tree i with budgets[i] (a nil slice, or a
// non-positive entry, uses the root's constraint) under policy, skipping
// a tree whose leaves are all dead, then with spo runs the optimization:
// servers in ID order, each server's live leaves in tree order then
// preorder, pins restored before Run returns. sink (may be nil) gets one
// NodeExplain per live node, in tree then BFS order, for the pass whose
// budgets stand; a second-pass node whose grant moved reports PhaseSPO.
// With no live tree nothing is budgeted and no report stands.
func (f *FeedSet) Run(budgets []power.Watts, policy Policy, spo bool, sink ExplainSink) {
	f.live = f.live[:0]
	anyLive := false
	for _, a := range f.engines[:f.n] {
		live := a.hasLive()
		f.live = append(f.live, live)
		anyLive = anyLive || live
	}
	f.pass(budgets, policy, nil)
	f.spo = spo && anyLive
	f.report = SPOReport{Stranded: f.report.Stranded[:0]}
	if f.spo {
		f.strand()
	}
	if len(f.pins) == 0 {
		if sink != nil {
			for i, a := range f.engines[:f.n] {
				if f.live[i] {
					a.sink = sink
					a.explainAll()
					a.sink = nil
				}
			}
		}
		return
	}
	f.pass(budgets, policy, sink)
	for _, p := range f.pins {
		p.leaf.BudgetCap = p.old
	}
	f.pins = f.pins[:0]
}

// pass runs every live engine once; with a sink, each engine's explains
// are tagged against the budgets it held before the pass.
func (f *FeedSet) pass(budgets []power.Watts, policy Policy, sink ExplainSink) {
	for i, a := range f.engines[:f.n] {
		if !f.live[i] {
			continue
		}
		var b power.Watts
		if budgets != nil {
			b = budgets[i]
		}
		if sink != nil {
			f.first = append(f.first[:0], a.budgets...)
			a.sink, a.phaseBase = sink, f.first
		}
		a.Run(b, policy)
		a.sink, a.phaseBase = nil, nil
	}
}

// strand records every stranded supply of the first pass in the report
// and pins it at its usable watts. A dead leaf draws nothing and is
// granted nothing (its tree may not even have run), so it is skipped.
func (f *FeedSet) strand() {
	budgetOf := func(l spoLeaf) power.Watts { return f.engines[l.tree].budgets[l.node] }
	for k := 0; k+1 < len(f.bounds); k++ {
		leaves := f.leaves[f.bounds[k]:f.bounds[k+1]]
		drawn := consumption(leaves, budgetOf)
		for _, l := range leaves {
			if l.leaf.Share == 0 {
				continue
			}
			budget := budgetOf(l)
			usable := power.Watts(l.leaf.Share) * drawn
			stranded := budget - usable
			if stranded <= epsilon {
				continue
			}
			f.report.Stranded = append(f.report.Stranded, StrandedSupply{
				SupplyID: l.leaf.SupplyID,
				ServerID: l.leaf.ServerID,
				Budget:   budget,
				Usable:   usable,
				Stranded: stranded,
			})
			f.report.TotalStranded += stranded
			f.pins = append(f.pins, spoPin{leaf: l.leaf, old: l.leaf.BudgetCap})
			l.leaf.BudgetCap = usable
		}
	}
	sort.Sort(bySupply{&f.report})
}

// bySupply sorts a report's stranded supplies by supply ID. It holds one
// pointer, so handing it to sort.Sort allocates nothing.
type bySupply struct{ r *SPOReport }

func (b bySupply) Len() int           { return len(b.r.Stranded) }
func (b bySupply) Less(i, j int) bool { return b.r.Stranded[i].SupplyID < b.r.Stranded[j].SupplyID }
func (b bySupply) Swap(i, j int)      { b.r.Stranded[i], b.r.Stranded[j] = b.r.Stranded[j], b.r.Stranded[i] }

// Report returns a copy of the last Run's stranded-power report: nil when
// that Run skipped the optimization or none has run since Rebind.
func (f *FeedSet) Report() *SPOReport {
	if !f.spo {
		return nil
	}
	return &SPOReport{
		Stranded:      append([]StrandedSupply(nil), f.report.Stranded...),
		TotalStranded: f.report.TotalStranded,
	}
}

// consumption predicts a server's achievable AC power under the given
// per-supply budgets: its load splits by each supply's share r, so the
// most constrained supply governs, as the capping controller of Section
// 4.2 enforces, and it draws min(effective demand, min_s budget_s / r_s).
// The effective demand is clamped to the controllable envelope: budgets
// below Pcap_min are unenforceable, and above Pcap_max wasted.
func consumption(leaves []spoLeaf, budgetOf func(spoLeaf) power.Watts) power.Watts {
	limit := power.Watts(math.Inf(1))
	for _, l := range leaves {
		if l.leaf.Share <= 0 {
			continue
		}
		if implied := budgetOf(l) / power.Watts(l.leaf.Share); implied < limit {
			limit = implied
		}
	}
	l := leaves[0].leaf
	return power.Min(power.Min(power.Max(l.Demand, l.CapMin), l.CapMax), limit)
}

// PredictConsumption returns each server's achievable AC power under the
// given per-tree allocations (trees[i] budgeted by allocs[i]); nil when a
// tree does not validate.
func PredictConsumption(trees []*Node, allocs []*Allocation) map[string]power.Watts {
	var f FeedSet
	if f.Rebind(trees) != nil {
		return nil
	}
	budgetOf := func(l spoLeaf) power.Watts { return allocs[l.tree].SupplyBudgets[l.leaf.SupplyID] }
	out := make(map[string]power.Watts, len(f.bounds))
	for k := 0; k+1 < len(f.bounds); k++ {
		leaves := f.leaves[f.bounds[k]:f.bounds[k+1]]
		out[leaves[0].leaf.ServerID] = consumption(leaves, budgetOf)
	}
	return out
}

// AllocateAll runs the budgeting algorithm independently over each control
// tree (the paper runs one tree per feed and phase). budgets[i] is the
// root budget for trees[i]; a nil budgets slice uses each root's
// constraint.
func AllocateAll(trees []*Node, budgets []power.Watts, policy Policy) ([]*Allocation, error) {
	allocs, _, err := allocateFeeds(trees, budgets, policy, false, nil)
	return allocs, err
}

// AllocateWithSPO performs the stranded power optimization of Section 4.4:
// it runs the capping algorithm once, identifies supplies whose budgets
// cannot be consumed because the server's intrinsic load split binds on a
// different feed, shrinks those budgets to the usable amount, and runs the
// algorithm a second time so the freed power reaches servers that were
// capped by the first pass. The trees are left unmodified. It is the
// one-shot form of a FeedSet Run.
func AllocateWithSPO(trees []*Node, budgets []power.Watts, policy Policy) ([]*Allocation, *SPOReport, error) {
	return AllocateWithSPOExplained(trees, budgets, policy, nil)
}

// AllocateWithSPOExplained is AllocateWithSPO with a per-node explanation
// stream for the pass that produced the returned allocations. Nodes whose
// grant was changed by the stranded-power redistribution (donors pinned to
// their usable watts, recipients of the freed power, and any ancestors
// whose budgets moved) carry Phase PhaseSPO; everything else reports
// PhasePreferred. sink may be nil.
func AllocateWithSPOExplained(trees []*Node, budgets []power.Watts, policy Policy, sink ExplainSink) ([]*Allocation, *SPOReport, error) {
	return allocateFeeds(trees, budgets, policy, true, sink)
}

// allocateFeeds is the one-shot form of a FeedSet Run: a fresh set over
// the trees, its results materialized as Allocations.
func allocateFeeds(trees []*Node, budgets []power.Watts, policy Policy, spo bool, sink ExplainSink) ([]*Allocation, *SPOReport, error) {
	if budgets != nil && len(budgets) != len(trees) {
		return nil, nil, fmt.Errorf("core: %d budgets for %d trees", len(budgets), len(trees))
	}
	var f FeedSet
	if err := f.Rebind(trees); err != nil {
		return nil, nil, err
	}
	f.Run(budgets, policy, spo, sink)
	allocs := make([]*Allocation, f.n)
	for i, a := range f.engines[:f.n] {
		allocs[i] = a.Snapshot()
	}
	return allocs, f.Report(), nil
}
