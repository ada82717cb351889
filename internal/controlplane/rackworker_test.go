package controlplane

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// randRackTree draws one rack subtree 1–3 levels deep: mixed priorities,
// split supplies, the odd SPO budget cap, and limits that now and then
// undercut the minimums below them.
func randRackTree(rng *rand.Rand, id string) *core.Node {
	n := 0
	var build func(depth int, limited bool) *core.Node
	build = func(depth int, limited bool) *core.Node {
		kids := make([]*core.Node, 1+rng.Intn(4))
		for i := range kids {
			n++
			if depth > 1 && rng.Intn(3) > 0 {
				kids[i] = build(depth-1, true)
				continue
			}
			sid := fmt.Sprintf("%s/s%02d", id, n)
			l := core.SupplyLeaf{
				SupplyID: sid, ServerID: sid + "/srv",
				Priority: core.Priority(rng.Intn(4)),
				Share:    []float64{1, 1, 0.5, 0.35}[rng.Intn(4)],
				CapMin:   power.Watts(200 + rng.Intn(100)),
				Demand:   power.Watts(150 + rng.Intn(500)),
			}
			l.CapMax = l.CapMin + power.Watts(rng.Intn(300))
			if rng.Intn(8) == 0 {
				l.BudgetCap = power.Watts(100 + rng.Intn(300))
			}
			kids[i] = core.NewLeaf(sid, l)
		}
		n++
		var limit power.Watts
		if limited && rng.Intn(2) == 0 {
			limit = power.Watts(100 + rng.Intn(1200))
		}
		return core.NewShifting(fmt.Sprintf("%s/n%02d", id, n), limit, kids...)
	}
	return build(1+rng.Intn(3), rng.Intn(3) == 0)
}

// redrawLeaves edits every leaf input in place, as a caller refreshing
// demand estimates between periods does.
func redrawLeaves(rng *rand.Rand, tree *core.Node) {
	for _, n := range tree.Leaves() {
		n.Leaf.Demand = power.Watts(150 + rng.Intn(500))
		n.Leaf.Priority = core.Priority(rng.Intn(4))
		n.Leaf.Share = []float64{1, 1, 0.5, 0.35}[rng.Intn(4)]
	}
}

// rackBudgets returns budgets that straddle the tree's feasibility: none
// given, below the minimums, between minimums and demand, and plenty.
func rackBudgets(t *testing.T, tree *core.Node) []power.Watts {
	t.Helper()
	s, err := core.Summarize(tree, core.GlobalPriority)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.TotalCapMin(), s.TotalDemand()
	return []power.Watts{0, -5, lo / 2, lo - 1, (lo + hi) / 2, hi + 100}
}

type supplyBudget struct {
	supply string
	budget power.Watts
}

// oneShotDiff holds a worker and checks each of its calls against the
// one-shot core API over the same tree.
type oneShotDiff struct {
	t      *testing.T
	w      *RackWorker
	policy core.Policy
	sunk   []supplyBudget
}

func newOneShotDiff(t *testing.T, tree *core.Node, policy core.Policy) *oneShotDiff {
	t.Helper()
	d := &oneShotDiff{t: t, policy: policy}
	w, err := NewRackWorker("rk", tree, policy, func(id string, b power.Watts) {
		d.sunk = append(d.sunk, supplyBudget{id, b})
	})
	if err != nil {
		t.Fatal(err)
	}
	d.w = w
	return d
}

// check compares one gather, one digest gather and one traced apply per
// budget with core.Summarize and core.AllocateExplained, exactly.
func (d *oneShotDiff) check(when string, tree *core.Node, budgets []power.Watts) {
	t := d.t
	t.Helper()
	ctx := context.Background()
	want, err := core.Summarize(tree, d.policy)
	if err != nil {
		t.Fatalf("%s: one-shot summarize: %v", when, err)
	}
	got, err := d.w.Gather(ctx)
	if err != nil {
		t.Fatalf("%s: Gather: %v", when, err)
	}
	if !summariesEquivalent(&got, &want) {
		t.Fatalf("%s: Gather = %+v, one-shot %+v", when, got, want)
	}
	got, dig, err := d.w.GatherDigest(ctx)
	if err != nil {
		t.Fatalf("%s: GatherDigest: %v", when, err)
	}
	if !summariesEquivalent(&got, &want) {
		t.Fatalf("%s: GatherDigest = %+v, one-shot %+v", when, got, want)
	}
	var wantDig fleetobs.StatDigest
	rackSelfDigest(&wantDig, "rk", &want, d.w.lastBudget, d.w.budgetSeen)
	// Clones, so that the worker's reused (empty, non-nil) outlier and
	// level slices compare equal to the fresh digest's nil ones.
	if !reflect.DeepEqual(dig.Clone(), wantDig.Clone()) {
		t.Fatalf("%s: digest = %+v, from the one-shot summary %+v", when, dig, &wantDig)
	}

	for _, b := range budgets {
		var wantExplains []core.NodeExplain
		wantAlloc, err := core.AllocateExplained(tree, b, d.policy, core.ExplainFunc(func(e core.NodeExplain) {
			wantExplains = append(wantExplains, e)
		}))
		if err != nil {
			t.Fatalf("%s: one-shot allocate: %v", when, err)
		}
		pt := flightrec.NewPeriodTrace()
		d.sunk = d.sunk[:0]
		if err := d.w.ApplyBudget(flightrec.ContextWithRemote(ctx, pt, ""), b); err != nil {
			t.Fatalf("%s: ApplyBudget(%v): %v", when, b, err)
		}
		if len(d.sunk) != len(wantAlloc.SupplyBudgets) {
			t.Fatalf("%s: budget %v: sink saw %d supplies, one-shot has %d", when, b, len(d.sunk), len(wantAlloc.SupplyBudgets))
		}
		for _, sb := range d.sunk {
			if wb, ok := wantAlloc.SupplyBudgets[sb.supply]; !ok || sb.budget != wb {
				t.Fatalf("%s: budget %v: sink %s = %v, one-shot %v", when, b, sb.supply, sb.budget, wb)
			}
		}
		if gotAlloc := d.w.LastAllocation(); !reflect.DeepEqual(gotAlloc, wantAlloc) {
			t.Fatalf("%s: budget %v: LastAllocation = %+v, one-shot %+v", when, b, gotAlloc, wantAlloc)
		}
		if gotExplains := pt.Explains(); !reflect.DeepEqual(gotExplains, wantExplains) {
			t.Fatalf("%s: budget %v: explain records\n got %+v\nwant %+v", when, b, gotExplains, wantExplains)
		}
		if d.w.LastBudget() != b {
			t.Fatalf("%s: LastBudget = %v, want %v", when, d.w.LastBudget(), b)
		}
	}
}

// TestRackWorkerMatchesOneShot is the differential test for the rack
// worker's persistent engine: whatever the caller does to the tree it
// owns, every call must return exactly what the one-shot API — validate,
// flatten, allocate from scratch — returns for the tree as it now stands.
func TestRackWorkerMatchesOneShot(t *testing.T) {
	policies := []core.Policy{core.NoPriority, core.LocalPriority, core.GlobalPriority}
	for seed := int64(1); seed <= 40; seed++ {
		for _, policy := range policies {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, policy), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				treeA, treeB := randRackTree(rng, "a"), randRackTree(rng, "b")
				d := newOneShotDiff(t, treeA, policy)
				d.check("fresh", treeA, rackBudgets(t, treeA))

				// The benchmark's stub set-up: leaves redrawn in place,
				// no SetTree.
				for i := 0; i < 3; i++ {
					redrawLeaves(rng, treeA)
					d.check("after in-place leaf edits", treeA, rackBudgets(t, treeA))
				}

				// Its churn: two trees alternating through SetTree, the
				// idle one redrawn while it is out.
				trees := [2]*core.Node{treeA, treeB}
				for i := 1; i <= 4; i++ {
					redrawLeaves(rng, trees[i%2])
					if err := d.w.SetTree(trees[i%2]); err != nil {
						t.Fatal(err)
					}
					d.check("after SetTree", trees[i%2], rackBudgets(t, trees[i%2]))
				}

				// In-place shape edits: a leaf appended, a child dropped,
				// a child swapped for a new node, a limit moved.
				extra := core.NewLeaf("a/extra", core.SupplyLeaf{
					SupplyID: "a/extra", ServerID: "a/extra/srv", Priority: 2, Share: 1,
					CapMin: 250, CapMax: 480, Demand: 400,
				})
				treeA.Children = append(treeA.Children, extra)
				d.check("after an appended leaf", treeA, rackBudgets(t, treeA))
				treeA.Children = treeA.Children[1:]
				d.check("after a dropped child", treeA, rackBudgets(t, treeA))
				swapped := *extra.Leaf
				swapped.SupplyID, swapped.Demand = "a/swapped", 300
				treeA.Children[len(treeA.Children)-1] = core.NewLeaf("a/swapped", swapped)
				d.check("after a swapped child", treeA, rackBudgets(t, treeA))
				treeA.Limit = 600
				d.check("after a limit edit", treeA, rackBudgets(t, treeA))
			})
		}
	}
}

// TestRackWorkerInvalidLeafEdit pins the per-call input checks: a leaf
// edited in place to something Node.Validate rejects fails the call with
// Validate's error — gather and apply both, the apply counted — and the
// worker recovers as soon as the leaf is valid again.
func TestRackWorkerInvalidLeafEdit(t *testing.T) {
	cases := []struct {
		name string
		edit func(l *core.SupplyLeaf)
	}{
		{"share zero", func(l *core.SupplyLeaf) { l.Share = 0 }},
		{"share above one", func(l *core.SupplyLeaf) { l.Share = 1.5 }},
		{"cap max below cap min", func(l *core.SupplyLeaf) { l.CapMax = l.CapMin - 1 }},
		{"negative demand", func(l *core.SupplyLeaf) { l.Demand = -1 }},
		{"empty supply ID", func(l *core.SupplyLeaf) { l.SupplyID = "" }},
		{"empty server ID", func(l *core.SupplyLeaf) { l.ServerID = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			tree := core.NewShifting("r", 900,
				core.NewShifting("cdu", 0, leaf("a", "A", 1, 430), leaf("b", "B", 0, 430)),
				leaf("c", "C", 0, 400))
			reg := telemetry.NewRegistry()
			sunk := 0
			w, err := NewRackWorker("r", tree, core.GlobalPriority,
				func(string, power.Watts) { sunk++ }, WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.ApplyBudget(ctx, 800); err != nil {
				t.Fatal(err)
			}
			before := w.LastAllocation()

			victim := tree.Children[0].Children[1].Leaf
			saved := *victim
			tc.edit(victim)
			_, wantErr := core.Summarize(tree, core.GlobalPriority)
			if wantErr == nil {
				t.Fatal("the edit is supposed to invalidate the tree")
			}
			if _, err := w.Gather(ctx); err == nil || err.Error() != wantErr.Error() {
				t.Errorf("Gather error = %v, want %v", err, wantErr)
			}
			if _, _, err := w.GatherDigest(ctx); err == nil || err.Error() != wantErr.Error() {
				t.Errorf("GatherDigest error = %v, want %v", err, wantErr)
			}
			sunk = 0
			err = w.ApplyBudget(ctx, 700)
			if want := "controlplane: rack r: " + wantErr.Error(); err == nil || err.Error() != want {
				t.Errorf("ApplyBudget error = %v, want %q", err, want)
			}
			if got := w.met.applyErrors.Value(); got != 1 {
				t.Errorf("apply errors = %v, want 1", got)
			}
			if sunk != 0 || w.LastBudget() != 800 || w.LastAllocation() != before {
				t.Errorf("failed apply left traces: %d sink calls, last budget %v", sunk, w.LastBudget())
			}

			*victim = saved
			if err := w.ApplyBudget(ctx, 700); err != nil {
				t.Errorf("apply after the leaf was repaired: %v", err)
			}
		})
	}
}

// TestRackWorkerInvalidShapeEdit: a restructuring edit that leaves the
// tree invalid fails the call with Validate's error, too.
func TestRackWorkerInvalidShapeEdit(t *testing.T) {
	ctx := context.Background()
	tree := core.NewShifting("r", 0, leaf("a", "A", 0, 400), leaf("b", "B", 0, 400))
	w, err := NewRackWorker("r", tree, core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree.Children = append(tree.Children, leaf("a", "A2", 0, 400)) // duplicate ID
	_, wantErr := core.Summarize(tree, core.GlobalPriority)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "duplicate") {
		t.Fatalf("one-shot error = %v, want a duplicate-ID complaint", wantErr)
	}
	if _, err := w.Gather(ctx); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("Gather error = %v, want %v", err, wantErr)
	}
	if err := w.ApplyBudget(ctx, 500); err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Errorf("ApplyBudget error = %v, want %v", err, wantErr)
	}
	tree.Children = tree.Children[:2]
	if _, err := w.Gather(ctx); err != nil {
		t.Errorf("Gather after the tree was repaired: %v", err)
	}
}

// TestRackWorkerSinkOrder pins the order supplies reach the sink in: the
// tree's flattened layout — top-down, left to right — the same every
// period, where ranging over the allocation's map used to shuffle it.
func TestRackWorkerSinkOrder(t *testing.T) {
	tree := core.NewShifting("r", 0,
		leaf("s0", "S0", 0, 400),
		core.NewShifting("cdu0", 0, leaf("s2", "S2", 1, 400), leaf("s3", "S3", 0, 400)),
		leaf("s1", "S1", 0, 400),
		core.NewShifting("cdu1", 0, leaf("s4", "S4", 0, 400)),
	)
	var got []string
	w, err := NewRackWorker("r", tree, core.GlobalPriority, func(id string, _ power.Watts) { got = append(got, id) })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"s0", "s1", "s2", "s3", "s4"}
	for period := 0; period < 20; period++ {
		got = got[:0]
		if err := w.ApplyBudget(context.Background(), power.Watts(1500+10*period)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("period %d: sink order %v, want %v", period, got, want)
		}
	}
}

// TestRackWorkerLastAllocationContract: nil before the first apply;
// afterwards the allocation of the most recent successful ApplyBudget,
// whenever it is asked for — also after a later gather, and after SetTree
// has moved the worker on to another tree.
func TestRackWorkerLastAllocationContract(t *testing.T) {
	ctx := context.Background()
	tree := core.NewShifting("r", 0, leaf("a", "A", 1, 430), leaf("b", "B", 0, 430))
	other := core.NewShifting("r2", 0, leaf("c", "C", 0, 300))
	w, err := NewRackWorker("r", tree, core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.LastAllocation() != nil {
		t.Fatal("allocation before the first apply")
	}
	if err := w.SetTree(tree); err != nil {
		t.Fatal(err)
	}
	if w.LastAllocation() != nil {
		t.Fatal("SetTree alone produced an allocation")
	}

	if err := w.ApplyBudget(ctx, 700); err != nil {
		t.Fatal(err)
	}
	want700 := core.MustAllocate(tree, 700, core.GlobalPriority)
	first := w.LastAllocation()
	if !reflect.DeepEqual(first, want700) {
		t.Fatalf("LastAllocation = %+v, want %+v", first, want700)
	}
	if w.LastAllocation() != first {
		t.Error("asking twice built two allocations")
	}

	// Never looked at: the 650 W allocation is simply superseded.
	if err := w.ApplyBudget(ctx, 650); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyBudget(ctx, 600); err != nil {
		t.Fatal(err)
	}
	want600 := core.MustAllocate(tree, 600, core.GlobalPriority)
	if _, err := w.Gather(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.SetTree(other); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Gather(ctx); err != nil {
		t.Fatal(err)
	}
	if got := w.LastAllocation(); !reflect.DeepEqual(got, want600) {
		t.Fatalf("after SetTree LastAllocation = %+v, want the 600 W allocation %+v", got, want600)
	}
	if !reflect.DeepEqual(first, want700) {
		t.Error("an allocation already handed out changed under its holder")
	}
	if err := w.ApplyBudget(ctx, 280); err != nil {
		t.Fatal(err)
	}
	if got, want := w.LastAllocation(), core.MustAllocate(other, 280, core.GlobalPriority); !reflect.DeepEqual(got, want) {
		t.Fatalf("on the new tree LastAllocation = %+v, want %+v", got, want)
	}
}

// TestRackWorkerSetTreeInvalidKeepsOld: a rejected SetTree leaves the
// worker on the tree and the engine it had.
func TestRackWorkerSetTreeInvalidKeepsOld(t *testing.T) {
	ctx := context.Background()
	tree := core.NewShifting("r", 0, leaf("a", "A", 1, 430), leaf("b", "B", 0, 430))
	w, err := NewRackWorker("r", tree, core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine := w.engine
	for name, bad := range map[string]*core.Node{
		"nil":          nil,
		"no children":  core.NewShifting("x", 0),
		"duplicate ID": core.NewShifting("x", 0, leaf("a", "A", 0, 400), leaf("a", "A", 0, 400)),
		"bad share":    core.NewShifting("x", 0, core.NewLeaf("a", core.SupplyLeaf{SupplyID: "a", ServerID: "A", CapMax: 400})),
	} {
		if err := w.SetTree(bad); err == nil {
			t.Errorf("SetTree(%s) succeeded", name)
		}
		if w.tree != tree || w.engine != engine {
			t.Fatalf("SetTree(%s) moved the worker off its tree or engine", name)
		}
	}
	got, err := w.Gather(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Summarize(tree, core.GlobalPriority)
	if !summariesEquivalent(&got, &want) {
		t.Errorf("Gather after rejected SetTrees = %+v, want %+v", got, want)
	}
}

// TestRackWorkerConcurrentCalls hammers one worker from every side at
// once. Under -race this is the check that the engine is only ever
// touched under the worker's lock; the budgets are checked by the
// differential test.
func TestRackWorkerConcurrentCalls(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	trees := [2]*core.Node{randRackTree(rng, "a"), randRackTree(rng, "b")}
	w, err := NewRackWorker("r", trees[0], core.GlobalPriority, func(string, power.Watts) {})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 300
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(int) error { _, err := w.Gather(ctx); return err })
	run(func(int) error { _, _, err := w.GatherDigest(ctx); return err })
	run(func(i int) error { return w.ApplyBudget(ctx, power.Watts(500+i)) })
	run(func(i int) error {
		return w.ApplyBudget(flightrec.ContextWithRemote(ctx, flightrec.NewPeriodTrace(), ""), power.Watts(900-i))
	})
	run(func(i int) error { return w.SetTree(trees[i%2]) })
	run(func(int) error {
		if a := w.LastAllocation(); a != nil && len(a.SupplyBudgets) == 0 {
			return fmt.Errorf("empty allocation")
		}
		w.LastBudget()
		return nil
	})
	wg.Wait()
}

// TestRackWorkerSteadyStateAllocs pins the steady-state cost of a rack's
// period — one gather, one apply, no sink, no trace: the only thing left
// to allocate is the Summary handed to the caller.
func TestRackWorkerSteadyStateAllocs(t *testing.T) {
	w, err := NewRackWorker("r", benchRackTree(40), core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	period := func() {
		s, err := w.Gather(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ApplyBudget(ctx, s.TotalDemand()*85/100); err != nil {
			t.Fatal(err)
		}
	}
	period() // first pass sizes the engine's scratch
	if allocs := testing.AllocsPerRun(200, period); allocs > 2 {
		t.Errorf("steady-state gather + apply allocates %v times, want <= 2", allocs)
	}
}

// TestRoomSteadyStateAllocs pins the steady-state cost of a room's period
// over 64 stub racks with fleet digests on at 134 allocations — the count
// a room that ran its own gather, hold and push measured (6.7 kB) — so
// delegating the tier's work adds no per-period garbage.
func TestRoomSteadyStateAllocs(t *testing.T) {
	const racks = 64
	clients := make(map[string]RackClient, racks)
	proxies := make([]*core.Node, 0, racks)
	for i := 0; i < racks; i++ {
		id := fmt.Sprintf("br%03d", i)
		s := core.NewSummary()
		s.SetLevel(0, 270*8, 450*8, 450*8)
		s.Constraint = 950 * 4
		clients[id] = &benchStubClient{s: s}
		proxies = append(proxies, core.NewProxy(id, core.NewSummary()))
	}
	room, err := NewRoomWorker(core.NewShifting("room", 0, proxies...),
		racks*450*7, core.GlobalPriority, clients, WithDigests(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	period := func() {
		if _, stats, err := room.RunPeriod(ctx); err != nil {
			t.Fatal(err)
		} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
			t.Fatalf("period degraded: %+v", stats)
		}
	}
	period() // first pass sizes the fan-out, digest and engine scratch
	if allocs := testing.AllocsPerRun(200, period); allocs > 134 {
		t.Errorf("steady-state room period allocates %v times, want <= 134", allocs)
	}
}

// TestRackWorkerSetTreeSteadyStateAllocs pins the other steady state: a
// caller that refreshes demand by swapping two trees through SetTree every
// period. The swap validates and flattens from scratch but leaves no
// garbage and no engine to warm up again, so the period still allocates
// only the Summary it returns.
func TestRackWorkerSetTreeSteadyStateAllocs(t *testing.T) {
	trees := [2]*core.Node{benchRackTree(40), benchRackTree(40)}
	w, err := NewRackWorker("r", trees[0], core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	i := 0
	period := func() {
		i++
		if err := w.SetTree(trees[i%2]); err != nil {
			t.Fatal(err)
		}
		s, err := w.Gather(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ApplyBudget(ctx, s.TotalDemand()*85/100); err != nil {
			t.Fatal(err)
		}
	}
	period() // one pass on each engine sizes its scratch
	period()
	if allocs := testing.AllocsPerRun(200, period); allocs > 2 {
		t.Errorf("steady-state SetTree + gather + apply allocates %v times, want <= 2", allocs)
	}
}

// TestRackWorkerLastAllocationOutlivesEngines: the last allocation stays
// in the engine that ran it until somebody asks; it must come out intact
// when that engine is about to be rebound — by the second SetTree after
// the apply, or by an in-place shape edit — before anybody has.
func TestRackWorkerLastAllocationOutlivesEngines(t *testing.T) {
	ctx := context.Background()
	mk := func(ids ...string) *core.Node {
		leaves := make([]*core.Node, len(ids))
		for i, id := range ids {
			leaves[i] = leaf(id, "S"+id, core.Priority(i%2), 430)
		}
		return core.NewShifting("r", 0, leaves...)
	}
	tree, second, third := mk("a", "b", "c"), mk("d", "e"), mk("f")
	w, err := NewRackWorker("r", tree, core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyBudget(ctx, 900); err != nil {
		t.Fatal(err)
	}
	want := core.MustAllocate(tree, 900, core.GlobalPriority)
	for _, next := range []*core.Node{second, third, tree, second} {
		if err := w.SetTree(next); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Gather(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.LastAllocation(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after four SetTrees LastAllocation = %+v, want %+v", got, want)
	}

	if err := w.ApplyBudget(ctx, 500); err != nil {
		t.Fatal(err)
	}
	want = core.MustAllocate(second, 500, core.GlobalPriority)
	second.Children = append(second.Children, leaf("g", "Sg", 0, 430))
	if _, err := w.Gather(ctx); err != nil { // re-flattens the engine holding the 500 W pass
		t.Fatal(err)
	}
	if got := w.LastAllocation(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after an in-place shape edit LastAllocation = %+v, want %+v", got, want)
	}
}
