package controlplane

import (
	"context"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// splitClient gathers through one client and pushes through another. It
// hides GatherDigest, so the worker above synthesizes the child's digest
// from its summary and recorded budget.
type splitClient struct{ gather, push RackClient }

func (c splitClient) Gather(ctx context.Context) (core.Summary, error) {
	return c.gather.Gather(ctx)
}

func (c splitClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	return c.push.ApplyBudget(ctx, b)
}

// faultyPair serves two in-process racks, ra and rb, through split
// clients whose gather and push sides are separate FaultyClients, and
// returns the clients, proxies and fault injectors keyed by rack.
func faultyPair(t *testing.T) (map[string]RackClient, []*core.Node, map[string]*FaultyClient, map[string]*FaultyClient) {
	t.Helper()
	clients := make(map[string]RackClient, 2)
	var proxies []*core.Node
	gathers := make(map[string]*FaultyClient, 2)
	pushes := make(map[string]*FaultyClient, 2)
	for i, id := range []string{"ra", "rb"} {
		w, err := NewRackWorker(id, core.NewShifting(id, 0,
			leaf(id+"-s0", id+"-s0", 0, 450), leaf(id+"-s1", id+"-s1", 0, 450)),
			core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		gathers[id] = NewFaultyClient(LocalClient{Worker: w}, int64(2*i+1))
		pushes[id] = NewFaultyClient(LocalClient{Worker: w}, int64(2*i+2))
		clients[id] = splitClient{gather: gathers[id], push: pushes[id]}
		proxies = append(proxies, core.NewProxy(id, core.NewSummary()))
	}
	return clients, proxies, gathers, pushes
}

// checkRoomPushedBudget asserts that both room-side budget readings for
// rack ra — RackFreshness.LastBudget and the per-rack budget gauge — show
// want, the budget last pushed to it.
func checkRoomPushedBudget(t *testing.T, room *RoomWorker, reg *telemetry.Registry, want power.Watts) {
	t.Helper()
	if got := room.RackFreshness()["ra"].LastBudget; got != want {
		t.Errorf("RackFreshness LastBudget = %v, want last pushed %v", got, want)
	}
	gauge := reg.GaugeVec("capmaestro_controlplane_rack_budget_watts", "", "rack").With("ra")
	if got := gauge.Value(); got != float64(want) {
		t.Errorf("rack budget gauge = %v, want last pushed %v", power.Watts(got), want)
	}
}

// checkFleetBudget runs one period and asserts that the fleet digest it
// built — synthesized per rack from the recorded budgets — sums want.
func checkFleetBudget(t *testing.T, room *RoomWorker, want power.Watts) {
	t.Helper()
	if _, _, err := room.RunPeriod(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, ok := room.FleetReport()
	if !ok {
		t.Fatal("no fleet report")
	}
	if rep.Fleet.BudgetW != float64(want) {
		t.Errorf("fleet digest budget = %v, want the pushed budgets' %v", power.Watts(rep.Fleet.BudgetW), want)
	}
}

// TestHeldRackKeepsPushedBudget holds rack ra by failing its gathers past
// the staleness bound, then lowers the room budget: the room allocates ra
// a new share it never sends, and every reading of ra's budget must keep
// the value last pushed.
func TestHeldRackKeepsPushedBudget(t *testing.T) {
	clients, proxies, gathers, _ := faultyPair(t)
	reg := telemetry.NewRegistry()
	room, err := NewRoomWorker(core.NewShifting("room", 0, proxies...), 1500,
		core.GlobalPriority, clients, WithTelemetry(reg), WithStalenessBound(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := room.RunPeriod(ctx); err != nil {
		t.Fatal(err)
	}
	// The first failed gather leaves ra stale but pushed (bound 1); the
	// second holds it.
	gathers["ra"].SetErrorRate(1)
	alloc, _, err := room.RunPeriod(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pushed := alloc.NodeBudgets["ra"]
	if _, stats, err := room.RunPeriod(ctx); err != nil || stats.BudgetsHeld != 1 {
		t.Fatalf("second failed gather: stats %+v, err %v; want ra held", stats, err)
	}

	room.budget = 1200
	alloc, stats, err := room.RunPeriod(ctx)
	if err != nil || stats.BudgetsHeld != 1 {
		t.Fatalf("held period: stats %+v, err %v", stats, err)
	}
	if alloc.NodeBudgets["ra"] == pushed {
		t.Fatalf("lower room budget left ra's allocation at %v; the test needs it to move", pushed)
	}
	checkRoomPushedBudget(t, room, reg, pushed)

	// ra recovers: the period's digest is built before its push, from the
	// budgets recorded so far.
	gathers["ra"].SetErrorRate(0)
	checkFleetBudget(t, room, pushed+alloc.NodeBudgets["rb"])
}

// TestFailedPushKeepsPushedBudget lowers the room budget while ra's push
// fails through a FaultyClient: every reading of ra's budget must keep
// the value its last successful push delivered.
func TestFailedPushKeepsPushedBudget(t *testing.T) {
	clients, proxies, _, pushes := faultyPair(t)
	reg := telemetry.NewRegistry()
	room, err := NewRoomWorker(core.NewShifting("room", 0, proxies...), 1500,
		core.GlobalPriority, clients, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	alloc, _, err := room.RunPeriod(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pushed := alloc.NodeBudgets["ra"]

	pushes["ra"].SetErrorRate(1)
	room.budget = 1200
	alloc, stats, err := room.RunPeriod(ctx)
	if err != nil || stats.ApplyErrors != 1 {
		t.Fatalf("failed-push period: stats %+v, err %v; want one apply error", stats, err)
	}
	if alloc.NodeBudgets["ra"] == pushed {
		t.Fatalf("lower room budget left ra's allocation at %v; the test needs it to move", pushed)
	}
	checkRoomPushedBudget(t, room, reg, pushed)
	checkFleetBudget(t, room, pushed+alloc.NodeBudgets["rb"])
}

// TestAggregatorDigestUsesPushedBudget is TestFailedPushKeepsPushedBudget
// one tier down: the aggregator's subtree digest synthesizes each child
// from the budget its last successful push delivered.
func TestAggregatorDigestUsesPushedBudget(t *testing.T) {
	clients, proxies, _, pushes := faultyPair(t)
	agg, err := NewAggregator(core.NewShifting("agg", 0, proxies...), core.GlobalPriority, clients)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := agg.GatherDigest(ctx); err != nil {
		t.Fatal(err)
	}
	if err := agg.ApplyBudget(ctx, 1500); err != nil {
		t.Fatal(err)
	}
	pushed := agg.LastAllocation().NodeBudgets["ra"]

	pushes["ra"].SetErrorRate(1)
	if _, _, err := agg.GatherDigest(ctx); err != nil {
		t.Fatal(err)
	}
	if err := agg.ApplyBudget(ctx, 1200); err == nil {
		t.Fatal("push through a failing FaultyClient reported success")
	}
	alloc := agg.LastAllocation()
	if alloc.NodeBudgets["ra"] == pushed {
		t.Fatalf("lower budget left ra's allocation at %v; the test needs it to move", pushed)
	}
	_, dig, err := agg.GatherDigest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := pushed + alloc.NodeBudgets["rb"]; dig.BudgetW != float64(want) {
		t.Errorf("aggregator digest budget = %v, want the pushed budgets' %v", power.Watts(dig.BudgetW), want)
	}
}
