package controlplane

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// threeLevelHierarchy builds room → 2 rows → 2 racks each → 2 servers each
// (8 servers total), with one high-priority server in the last rack.
func threeLevelHierarchy(t *testing.T, policy core.Policy) (*RoomWorker, map[string]power.Watts) {
	t.Helper()
	budgets := make(map[string]power.Watts)
	var mu sync.Mutex
	sink := func(supplyID string, b power.Watts) {
		mu.Lock()
		budgets[supplyID] = b
		mu.Unlock()
	}

	mkRack := func(row, rack int) *RackWorker {
		id := rackID(row, rack)
		var leaves []*core.Node
		for srv := 0; srv < 2; srv++ {
			supply := id + "-s" + string(rune('0'+srv))
			prio := core.Priority(0)
			if row == 1 && rack == 1 && srv == 1 {
				prio = 1 // the one high-priority server, in the last rack
			}
			leaves = append(leaves, core.NewLeaf(supply, core.SupplyLeaf{
				SupplyID: supply, ServerID: supply, Priority: prio, Share: 1,
				CapMin: 270, CapMax: 490, Demand: 450,
			}))
		}
		w, err := NewRackWorker(id, core.NewShifting(id, 950, leaves...), policy, sink)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	var rowClients = make(map[string]RackClient)
	for row := 0; row < 2; row++ {
		rackClients := make(map[string]RackClient)
		var proxies []*core.Node
		for rack := 0; rack < 2; rack++ {
			id := rackID(row, rack)
			rackClients[id] = LocalClient{Worker: mkRack(row, rack)}
			proxies = append(proxies, core.NewProxy(id, core.NewSummary()))
		}
		rowTree := core.NewShifting(rowID(row), 1900, proxies...)
		agg, err := NewAggregator(rowTree, policy, rackClients)
		if err != nil {
			t.Fatal(err)
		}
		rowClients[rowID(row)] = agg
	}
	roomTree := core.NewShifting("room", 0,
		core.NewProxy(rowID(0), core.NewSummary()),
		core.NewProxy(rowID(1), core.NewSummary()),
	)
	room, err := NewRoomWorker(roomTree, 2500, policy, rowClients)
	if err != nil {
		t.Fatal(err)
	}
	return room, budgets
}

func rackID(row, rack int) string {
	return "row" + string(rune('0'+row)) + "-rack" + string(rune('0'+rack))
}
func rowID(row int) string { return "row" + string(rune('0'+row)) }

// monolithicThreeLevel computes the same allocation in one tree.
func monolithicThreeLevel(policy core.Policy) map[string]power.Watts {
	var rows []*core.Node
	for row := 0; row < 2; row++ {
		var racks []*core.Node
		for rack := 0; rack < 2; rack++ {
			id := rackID(row, rack)
			var leaves []*core.Node
			for srv := 0; srv < 2; srv++ {
				supply := id + "-s" + string(rune('0'+srv))
				prio := core.Priority(0)
				if row == 1 && rack == 1 && srv == 1 {
					prio = 1
				}
				leaves = append(leaves, core.NewLeaf(supply, core.SupplyLeaf{
					SupplyID: supply, ServerID: supply, Priority: prio, Share: 1,
					CapMin: 270, CapMax: 490, Demand: 450,
				}))
			}
			racks = append(racks, core.NewShifting(id, 950, leaves...))
		}
		rows = append(rows, core.NewShifting(rowID(row), 1900, racks...))
	}
	return core.MustAllocate(core.NewShifting("room", 0, rows...), 2500, policy).SupplyBudgets
}

// TestThreeLevelHierarchyMatchesMonolithic: stacking an aggregator between
// room and racks changes nothing about the budgets, for every policy —
// the summaries carry all the information the upper levels need.
func TestThreeLevelHierarchyMatchesMonolithic(t *testing.T) {
	for _, policy := range []core.Policy{core.NoPriority, core.LocalPriority, core.GlobalPriority} {
		t.Run(policy.String(), func(t *testing.T) {
			room, budgets := threeLevelHierarchy(t, policy)
			if _, stats, err := room.RunPeriod(context.Background()); err != nil {
				t.Fatal(err)
			} else if stats.GatherErrors+stats.ApplyErrors != 0 {
				t.Fatalf("stats: %+v", stats)
			}
			want := monolithicThreeLevel(policy)
			if len(want) != 8 {
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

// TestGlobalPriorityThroughThreeLevels: the high-priority server in the
// last rack receives its full demand under Global Priority even though the
// power comes from servers two aggregation levels away.
func TestGlobalPriorityThroughThreeLevels(t *testing.T) {
	room, budgets := threeLevelHierarchy(t, core.GlobalPriority)
	if _, _, err := room.RunPeriod(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Total demand 8×450 = 3600 > 2500: capping is active.
	hi := budgets["row1-rack1-s1"]
	if !power.ApproxEqual(hi, 450, 0.001) {
		t.Errorf("high-priority budget = %v, want full 450", hi)
	}
	var total power.Watts
	for _, b := range budgets {
		total += b
	}
	if total > 2500+0.001 {
		t.Errorf("total %v exceeds the room budget", total)
	}
}

func TestAggregatorValidation(t *testing.T) {
	if _, err := NewAggregator(nil, core.GlobalPriority, nil); err == nil {
		t.Error("nil tree should fail")
	}
	noProxy := core.NewShifting("t", 0, leaf("a", "A", 0, 400))
	if _, err := NewAggregator(noProxy, core.GlobalPriority, nil); err == nil {
		t.Error("proxyless tree should fail")
	}
	tree := core.NewShifting("t", 0, core.NewProxy("p", core.NewSummary()))
	if _, err := NewAggregator(tree, core.GlobalPriority, map[string]RackClient{}); err == nil {
		t.Error("missing client should fail")
	}
	tree2 := core.NewShifting("t2", 0, core.NewProxy("p2", core.NewSummary()))
	if _, err := NewAggregator(tree2, core.GlobalPriority,
		map[string]RackClient{"p2": LocalClient{}, "ghost": LocalClient{}}); err == nil {
		t.Error("client without proxy should fail")
	}
}

func TestAggregatorToleratesChildFailure(t *testing.T) {
	okWorker, err := NewRackWorker("ok", core.NewShifting("ok", 0, leaf("a", "A", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := core.NewShifting("agg", 0,
		core.NewProxy("ok", core.NewSummary()),
		core.NewProxy("dead", core.NewSummary()),
	)
	agg, err := NewAggregator(tree, core.GlobalPriority, map[string]RackClient{
		"ok":   LocalClient{Worker: okWorker},
		"dead": failingClient{},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := agg.Gather(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The healthy child's summary still flows up.
	if s.TotalCapMin() < 270 {
		t.Errorf("summary missing healthy child: %+v", s)
	}
	// ApplyBudget budgets the healthy child; the dead child has never been
	// gathered, so its push is held rather than attempted.
	if err := agg.ApplyBudget(context.Background(), 800); err != nil {
		t.Errorf("never-gathered child should be held, not pushed: %v", err)
	}
	if agg.LastBudget() != 800 || agg.LastAllocation() == nil {
		t.Error("aggregator state not updated")
	}
	if b := okWorker.LastBudget(); b < 270 {
		t.Errorf("healthy child budget = %v", b)
	}
}

// TestAggregatorHoldsNeverGatheredChild pins the held-child semantics
// directly: a child whose gather has never succeeded receives no
// ApplyBudget call, and starts receiving budgets once it recovers.
func TestAggregatorHoldsNeverGatheredChild(t *testing.T) {
	okWorker, err := NewRackWorker("ok", core.NewShifting("ok", 0, leaf("a", "A", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	darkWorker, err := NewRackWorker("dark", core.NewShifting("dark", 0, leaf("b", "B", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	dark := &switchableClient{inner: LocalClient{Worker: darkWorker}, failGathers: true}
	tree := core.NewShifting("agg", 0,
		core.NewProxy("ok", core.NewSummary()),
		core.NewProxy("dark", core.NewSummary()),
	)
	agg, err := NewAggregator(tree, core.GlobalPriority, map[string]RackClient{
		"ok":   LocalClient{Worker: okWorker},
		"dark": dark,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := agg.Gather(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := agg.ApplyBudget(context.Background(), 900); err != nil {
			t.Fatal(err)
		}
	}
	if n := dark.budgetPushes(); n != 0 {
		t.Fatalf("never-gathered child received %d pushes", n)
	}
	dark.setGatherFails(false)
	if _, err := agg.Gather(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := agg.ApplyBudget(context.Background(), 900); err != nil {
		t.Fatal(err)
	}
	if n := dark.budgetPushes(); n != 1 {
		t.Errorf("recovered child pushes = %d, want 1", n)
	}
	if b := darkWorker.LastBudget(); b < 270 {
		t.Errorf("recovered child budget = %v, want at least its Pcap_min", b)
	}
}

// TestAggregatorCancelledGatherIsNotAnOutage: a gather cancelled
// mid-wave — a shutdown reaching an aggregator through its parent — is
// not a child outage. The aggregator returns the context's error and
// commits nothing: no gather error, no staleness, no failure log.
func TestAggregatorCancelledGatherIsNotAnOutage(t *testing.T) {
	okWorker, err := NewRackWorker("ok", core.NewShifting("ok", 0, leaf("a", "A", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	block := &blockingClient{started: make(chan struct{}, 1)}
	tree := core.NewShifting("agg", 0,
		core.NewProxy("ok", core.NewSummary()),
		core.NewProxy("b", core.NewSummary()),
	)
	reg := telemetry.NewRegistry()
	var logs bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logs, nil))
	agg, err := NewAggregator(tree, core.GlobalPriority, map[string]RackClient{
		"ok": LocalClient{Worker: okWorker},
		"b":  block,
	}, WithTelemetry(reg), WithLogger(log))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-block.started
		cancel()
	}()
	if _, _, err := agg.GatherDigest(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gather returned %v, want context.Canceled", err)
	}
	if stats := agg.LastStats(); stats != (PeriodStats{}) {
		t.Errorf("cancelled gather committed stats %+v", stats)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`capmaestro_controlplane_level_gather_errors_total{level="1"} 0`,
		`capmaestro_controlplane_level_gather_seconds_count{level="1"} 0`,
		`capmaestro_controlplane_level_unseen_children{level="1"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q\n%s", want, sb.String())
		}
	}
	if logs.Len() != 0 {
		t.Errorf("cancelled gather logged:\n%s", logs.String())
	}
}

// TestAggregatorConcurrentPasses: gathers and budget pushes issued from
// several goroutines at once serialize on the aggregator's pass lock and
// on its children's one shared connection, while the accessors answer
// throughout. Run under -race.
func TestAggregatorConcurrentPasses(t *testing.T) {
	const racks = 3
	serve := make(map[string]RackClient, racks)
	proxies := make([]*core.Node, 0, racks)
	for r := 0; r < racks; r++ {
		w, err := NewRackWorker(fmt.Sprintf("hr%02d", r), hierRackTree(r), core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		serve[w.ID()] = w
		proxies = append(proxies, core.NewProxy(w.ID(), core.NewSummary()))
	}
	srv, err := ServeRacks(serve, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := DialRack(srv.Addr(), 2*time.Second, WithDigests(true))
	t.Cleanup(func() { c.Close() })
	children := make(map[string]RackClient, racks)
	for id := range serve {
		children[id] = c.Rack(id)
	}
	agg, err := NewAggregator(core.NewShifting("agg", 0, proxies...), core.GlobalPriority, children)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := agg.GatherDigest(ctx); err != nil {
					t.Errorf("gather: %v", err)
					return
				}
				if err := agg.ApplyBudget(ctx, 3000); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				agg.LastStats()
				agg.LastBudget()
				agg.LastAllocation()
			}
		}()
	}
	wg.Wait()
	if s := agg.LastStats(); s.GatherErrors+s.ApplyErrors+s.BudgetsHeld != 0 || s.RacksServed != racks {
		t.Errorf("LastStats = %+v, want %d racks served cleanly", s, racks)
	}
	if got := agg.LastBudget(); got != 3000 {
		t.Errorf("LastBudget = %v, want 3000", got)
	}
	for id, w := range serve {
		if w.(*RackWorker).LastBudget() <= 0 {
			t.Errorf("rack %s was pushed no budget", id)
		}
	}
}
