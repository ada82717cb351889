package controlplane

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
)

// hierRack builds one varied rack worker subtree for hierarchy tests:
// rack r has three servers with demands and priorities derived from r, so
// no two racks are interchangeable.
func hierRackTree(r int) *core.Node {
	id := fmt.Sprintf("hr%02d", r)
	leaves := make([]*core.Node, 3)
	for s := range leaves {
		prio := core.Priority(0)
		if (r+s)%3 == 0 {
			prio = 1
		}
		demand := power.Watts(350 + (r*37+s*113)%130)
		supply := fmt.Sprintf("%s-s%d", id, s)
		leaves[s] = core.NewLeaf(supply, core.SupplyLeaf{
			SupplyID: supply, ServerID: supply, Priority: prio, Share: 1,
			CapMin: 270, CapMax: 490, Demand: demand,
		})
	}
	return core.NewShifting(id, 1300, leaves...)
}

// monoHierarchy nests the same rack trees with the same sorted-ID
// chunking BuildHierarchy uses, so a monolithic allocation over it is the
// watt-for-watt reference for the sharded hierarchy.
func monoHierarchy(rackTrees []*core.Node, fanOut, levels int) *core.Node {
	nodes := rackTrees
	for level := 1; level <= levels-2; level++ {
		var next []*core.Node
		for gi := 0; gi*fanOut < len(nodes); gi++ {
			chunk := nodes[gi*fanOut : min((gi+1)*fanOut, len(nodes))]
			next = append(next, core.NewShifting(fmt.Sprintf("l%d-%d", level, gi), 0, chunk...))
		}
		nodes = next
	}
	return core.NewShifting("room", 0, nodes...)
}

func TestBuildHierarchyShape(t *testing.T) {
	mkClients := func(n int) map[string]RackClient {
		clients := make(map[string]RackClient, n)
		for r := 0; r < n; r++ {
			w, err := NewRackWorker(fmt.Sprintf("hr%02d", r), hierRackTree(r), core.GlobalPriority, nil)
			if err != nil {
				t.Fatal(err)
			}
			clients[w.ID()] = LocalClient{Worker: w}
		}
		return clients
	}
	cases := []struct {
		levels, fanOut int
		wantTiers      []int // aggregators per tier, bottom-up
	}{
		{levels: 2, fanOut: 3, wantTiers: nil},
		{levels: 3, fanOut: 3, wantTiers: []int{4}},    // 10 racks / 3
		{levels: 4, fanOut: 3, wantTiers: []int{4, 2}}, // 4 aggs / 3
		{levels: 5, fanOut: 3, wantTiers: []int{4, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("levels=%d", tc.levels), func(t *testing.T) {
			h, err := BuildHierarchy(mkClients(10), HierarchyConfig{
				Levels: tc.levels, FanOut: tc.fanOut, Policy: core.GlobalPriority,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(h.Tiers) != len(tc.wantTiers) {
				t.Fatalf("tiers = %d, want %d", len(h.Tiers), len(tc.wantTiers))
			}
			for i, want := range tc.wantTiers {
				if len(h.Tiers[i]) != want {
					t.Errorf("tier %d has %d aggregators, want %d", i, len(h.Tiers[i]), want)
				}
			}
			if _, stats, err := h.Room.RunPeriod(context.Background()); err != nil {
				t.Fatal(err)
			} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
				t.Fatalf("first period degraded: %+v", stats)
			}
		})
	}
}

func TestBuildHierarchyValidation(t *testing.T) {
	w, err := NewRackWorker("hr00", hierRackTree(0), core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	one := map[string]RackClient{"hr00": LocalClient{Worker: w}}
	if _, err := BuildHierarchy(nil, HierarchyConfig{Levels: 2}); err == nil {
		t.Error("empty rack set should fail")
	}
	if _, err := BuildHierarchy(one, HierarchyConfig{Levels: 1}); err == nil {
		t.Error("levels < 2 should fail")
	}
	if _, err := BuildHierarchy(one, HierarchyConfig{Levels: 3, FanOut: 1}); err == nil {
		t.Error("fan-out 1 should fail")
	}
}

// TestHierarchyMatchesMonolithic: for every policy and every depth, the
// sharded hierarchy's per-supply budgets equal a monolithic allocation
// over the identically nested tree, watt for watt — sharding changes who
// talks to whom, never what anyone gets.
func TestHierarchyMatchesMonolithic(t *testing.T) {
	const racks, fanOut = 10, 3
	for _, policy := range []core.Policy{core.NoPriority, core.LocalPriority, core.GlobalPriority} {
		for _, levels := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/levels=%d", policy, levels), func(t *testing.T) {
				budgets := make(map[string]power.Watts)
				var mu sync.Mutex
				sink := func(supplyID string, b power.Watts) {
					mu.Lock()
					budgets[supplyID] = b
					mu.Unlock()
				}
				clients := make(map[string]RackClient, racks)
				var rackTrees []*core.Node
				for r := 0; r < racks; r++ {
					w, err := NewRackWorker(fmt.Sprintf("hr%02d", r), hierRackTree(r), policy, sink)
					if err != nil {
						t.Fatal(err)
					}
					clients[w.ID()] = LocalClient{Worker: w}
					rackTrees = append(rackTrees, hierRackTree(r))
				}
				sort.Slice(rackTrees, func(i, j int) bool { return rackTrees[i].ID < rackTrees[j].ID })

				const budget = 9000 // < total demand (~12.4 kW): capping active
				h, err := BuildHierarchy(clients, HierarchyConfig{
					Levels: levels, FanOut: fanOut, Policy: policy, Budget: budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, stats, err := h.Room.RunPeriod(context.Background()); err != nil {
					t.Fatal(err)
				} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
					t.Fatalf("period degraded: %+v", stats)
				}

				want := core.MustAllocate(monoHierarchy(rackTrees, fanOut, levels), budget, policy).SupplyBudgets
				if len(want) != racks*3 {
					t.Fatalf("monolithic budget count = %d", len(want))
				}
				for supply, wb := range want {
					if got := budgets[supply]; math.Abs(float64(got-wb)) > 0.001 {
						t.Errorf("budget[%s] = %v, want %v", supply, got, wb)
					}
				}
			})
		}
	}
}

// TestThreeLevelHierarchyChaos drives a room → aggregators → TCP racks
// hierarchy through fault injection at both weak points — a dropping
// proxy in front of each rack endpoint and FaultyClients between room and
// aggregators — then clears the faults and asserts the hierarchy settles
// to exactly the monolithic allocation, with the fleet observability
// digest rollup watt-for-watt equal to the racks' total demand. Digests
// are enabled end to end. Raced in CI.
func TestThreeLevelHierarchyChaos(t *testing.T) {
	seed := chaosSeed(t)
	const (
		racks      = 4
		fanOut     = 2
		roomBudget = 2900 // < total demand 3480: capping active
	)

	budgets := make(map[string]power.Watts)
	var mu sync.Mutex
	sink := func(supplyID string, b power.Watts) {
		mu.Lock()
		budgets[supplyID] = b
		mu.Unlock()
	}

	mkTree := func(r int) *core.Node {
		id := fmt.Sprintf("cr%d", r)
		var leaves []*core.Node
		for s := 0; s < 2; s++ {
			supply := fmt.Sprintf("%s-s%d", id, s)
			prio := core.Priority(0)
			if r == racks-1 && s == 1 {
				prio = 1
			}
			leaves = append(leaves, core.NewLeaf(supply, core.SupplyLeaf{
				SupplyID: supply, ServerID: supply, Priority: prio, Share: 1,
				CapMin: 270, CapMax: 490, Demand: power.Watts(420 + 10*r),
			}))
		}
		return core.NewShifting(id, 950, leaves...)
	}

	// Rack tier: two TCP endpoints of two racks each, a dropping proxy in
	// front of each, batch handles with retries behind them.
	var proxies []*droppingProxy
	clients := make(map[string]RackClient, racks)
	for base := 0; base < racks; base += fanOut {
		workers := make(map[string]RackClient, fanOut)
		for r := base; r < base+fanOut; r++ {
			w, err := NewRackWorker(fmt.Sprintf("cr%d", r), mkTree(r), core.GlobalPriority, sink)
			if err != nil {
				t.Fatal(err)
			}
			workers[w.ID()] = w
		}
		srv, err := ServeRacks(workers, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		proxy := newDroppingProxy(t, srv.Addr(), 5)
		proxies = append(proxies, proxy)
		tc := DialRack(proxy.addr(), 2*time.Second,
			WithDigests(true), WithRPCRetry(3, 2*time.Millisecond))
		t.Cleanup(func() { tc.Close() })
		for r := base; r < base+fanOut; r++ {
			clients[fmt.Sprintf("cr%d", r)] = tc.Rack(fmt.Sprintf("cr%d", r))
		}
	}

	// Middle tier: one aggregator per endpoint group, wrapped in a
	// FaultyClient toward the room.
	var faulties []*FaultyClient
	roomClients := make(map[string]RackClient, 2)
	var roomProxies []*core.Node
	for gi := 0; gi*fanOut < racks; gi++ {
		var aggProxies []*core.Node
		childMap := make(map[string]RackClient, fanOut)
		for r := gi * fanOut; r < (gi+1)*fanOut; r++ {
			id := fmt.Sprintf("cr%d", r)
			aggProxies = append(aggProxies, core.NewProxy(id, core.NewSummary()))
			childMap[id] = clients[id]
		}
		aggID := fmt.Sprintf("agg%d", gi)
		agg, err := NewAggregator(core.NewShifting(aggID, 0, aggProxies...), core.GlobalPriority, childMap,
			WithHierarchyLevel(1))
		if err != nil {
			t.Fatal(err)
		}
		fc := NewFaultyClient(agg, seed+int64(gi))
		faulties = append(faulties, fc)
		roomClients[aggID] = fc
		roomProxies = append(roomProxies, core.NewProxy(aggID, core.NewSummary()))
	}
	room, err := NewRoomWorker(core.NewShifting("room", 0, roomProxies...), roomBudget,
		core.GlobalPriority, roomClients)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos phase: middle-tier faults on top of the dropping proxies.
	for _, fc := range faulties {
		fc.SetErrorRate(0.3)
	}
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		if _, _, err := room.RunPeriod(ctx); err != nil {
			t.Fatalf("chaos period %d: %v", i, err)
		}
	}
	var injected uint64
	for _, fc := range faulties {
		injected += fc.InjectedFaults()
	}
	if injected == 0 {
		t.Fatal("chaos phase injected no middle-tier faults")
	}

	// Clear faults and let the hierarchy settle: one period to re-gather
	// everything, one to push budgets computed from all-fresh summaries.
	for _, fc := range faulties {
		fc.SetErrorRate(0)
	}
	for i := 0; i < 3; i++ {
		if _, stats, err := room.RunPeriod(ctx); err != nil {
			t.Fatalf("settle period %d: %v", i, err)
		} else if i > 0 && stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
			t.Fatalf("settle period %d still degraded: %+v", i, stats)
		}
	}

	var rackTrees []*core.Node
	for r := 0; r < racks; r++ {
		rackTrees = append(rackTrees, mkTree(r))
	}
	want := core.MustAllocate(monoHierarchy(rackTrees, fanOut, 3), roomBudget, core.GlobalPriority).SupplyBudgets
	mu.Lock()
	for supply, wb := range want {
		if got := budgets[supply]; math.Abs(float64(got-wb)) > 0.001 {
			t.Errorf("budget[%s] = %v, want %v", supply, got, wb)
		}
	}
	mu.Unlock()

	// Fleet observability rollup after settling: the digest that rode the
	// gather path must cover every rack and sum their demand exactly —
	// racks report 840+20r watts of demand each, 3480 W total.
	rep, ok := room.FleetReport()
	if !ok {
		t.Fatal("no fleet digest after settled periods")
	}
	if rep.Summary.Racks != racks {
		t.Fatalf("fleet digest covers %d racks, want %d", rep.Summary.Racks, racks)
	}
	if rep.Summary.PowerWatts != 3480 {
		t.Fatalf("fleet digest power = %v W, want exactly 3480", rep.Summary.PowerWatts)
	}
	// Demand exceeds the room budget, so somebody must be flagged: the
	// digest's top-K outliers carry the capped racks with reasons.
	if len(rep.Fleet.Outliers) == 0 {
		t.Fatal("capped fleet produced no outlier racks")
	}
	for _, o := range rep.Fleet.Outliers {
		if o.Reason == "" || o.Rack == "" {
			t.Fatalf("outlier missing rack or reason: %+v", o)
		}
	}
	// Level rows: the aggregator tier (level 1, 4 racks across 2 workers
	// merged) and the room's own row stacked above it.
	if len(rep.Fleet.Levels) != 2 {
		t.Fatalf("fleet digest has %d level rows, want 2: %+v", len(rep.Fleet.Levels), rep.Fleet.Levels)
	}

	drops := 0
	for _, p := range proxies {
		drops += p.dropCount()
	}
	t.Logf("chaos: %d injected faults, %d dropped frames", injected, drops)
}

// TestHierarchyFlightRecorderOverBatchedBinary is the regression test for
// the traced batch frame: with a flight recorder on, every batched RPC to
// a ServeRacks endpoint comes back carrying batch entries and spans, and
// while the binary reader took those in the wrong order each such RPC
// failed, every tier above held its racks and nothing was pushed — with
// the room's own stats clean. So every tier's stats are checked, the
// racks must have received their budgets, and the rack-side spans and
// explain records must have made it into the period record.
func TestHierarchyFlightRecorderOverBatchedBinary(t *testing.T) {
	const racks, fanOut = 6, 3
	for _, levels := range []int{2, 3} {
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) {
			workers := make([]*RackWorker, racks)
			clients := make(map[string]RackClient, racks)
			for g := 0; g*fanOut < racks; g++ {
				serve := make(map[string]RackClient, fanOut)
				for r := g * fanOut; r < (g+1)*fanOut; r++ {
					w, err := NewRackWorker(fmt.Sprintf("hr%02d", r), hierRackTree(r), core.GlobalPriority, nil)
					if err != nil {
						t.Fatal(err)
					}
					workers[r] = w
					serve[w.ID()] = w
				}
				srv, err := ServeRacks(serve, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				c := DialRack(srv.Addr(), 2*time.Second)
				t.Cleanup(func() { c.Close() })
				for id := range serve {
					clients[id] = c.Rack(id)
				}
			}
			rec := flightrec.NewRecorder(4)
			h, err := BuildHierarchy(clients, HierarchyConfig{
				Levels: levels, FanOut: fanOut, Policy: core.GlobalPriority, Budget: 5000,
				Opts: []Option{WithFlightRecorder(rec)},
			})
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := h.Room.RunPeriod(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
				t.Errorf("room period degraded: %+v", stats)
			}
			for ti, tier := range h.Tiers {
				for _, agg := range tier {
					if s := agg.LastStats(); s.GatherErrors+s.ApplyErrors+s.BudgetsHeld != 0 {
						t.Errorf("tier %d aggregator %s degraded: %+v", ti+1, agg.ID(), s)
					}
				}
			}
			for _, w := range workers {
				if w.LastBudget() <= 0 {
					t.Errorf("rack %s was pushed no budget", w.ID())
				}
			}
			records := rec.Records()
			if len(records) != 1 {
				t.Fatalf("recorded %d periods, want 1", len(records))
			}
			rackSpans := make(map[string]int)
			for _, s := range records[0].Spans {
				if s.Name == "rack.gather" || s.Name == "rack.apply" {
					rackSpans[s.Node]++
				}
			}
			leafExplains := 0
			for _, e := range records[0].Explains {
				if e.Leaf {
					leafExplains++
				}
			}
			for _, w := range workers {
				if rackSpans[w.ID()] != 2 {
					t.Errorf("rack %s shipped %d spans back, want gather + apply", w.ID(), rackSpans[w.ID()])
				}
			}
			if leafExplains != racks*3 {
				t.Errorf("period record has %d leaf explain records, want %d", leafExplains, racks*3)
			}
		})
	}
}
