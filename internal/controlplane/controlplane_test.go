package controlplane

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
)

func leaf(id, serverID string, prio core.Priority, demand power.Watts) *core.Node {
	return core.NewLeaf(id, core.SupplyLeaf{
		SupplyID: id, ServerID: serverID, Priority: prio, Share: 1,
		CapMin: 270, CapMax: 490, Demand: demand,
	})
}

// distributedFig2 splits the Figure 2 hierarchy across workers: rack
// workers own the left and right CBs, the room worker owns the top CB with
// two proxies.
func distributedFig2(t *testing.T, policy core.Policy) (*RoomWorker, map[string]power.Watts, []*RackWorker) {
	t.Helper()
	budgets := make(map[string]power.Watts)
	var mu sync.Mutex
	sink := func(supplyID string, b power.Watts) {
		mu.Lock()
		budgets[supplyID] = b
		mu.Unlock()
	}
	leftTree := core.NewShifting("left", 750,
		leaf("SA-ps", "SA", 1, 430),
		leaf("SB-ps", "SB", 0, 430),
	)
	rightTree := core.NewShifting("right", 750,
		leaf("SC-ps", "SC", 0, 430),
		leaf("SD-ps", "SD", 0, 430),
	)
	leftWorker, err := NewRackWorker("left", leftTree, policy, sink)
	if err != nil {
		t.Fatal(err)
	}
	rightWorker, err := NewRackWorker("right", rightTree, policy, sink)
	if err != nil {
		t.Fatal(err)
	}
	roomTree := core.NewShifting("top", 1400,
		core.NewProxy("left", core.NewSummary()),
		core.NewProxy("right", core.NewSummary()),
	)
	room, err := NewRoomWorker(roomTree, 1240, policy, map[string]RackClient{
		"left":  LocalClient{Worker: leftWorker},
		"right": LocalClient{Worker: rightWorker},
	})
	if err != nil {
		t.Fatal(err)
	}
	return room, budgets, []*RackWorker{leftWorker, rightWorker}
}

// monolithicFig2 computes the same allocation in a single tree.
func monolithicFig2(policy core.Policy) map[string]power.Watts {
	tree := core.NewShifting("top", 1400,
		core.NewShifting("left", 750,
			leaf("SA-ps", "SA", 1, 430),
			leaf("SB-ps", "SB", 0, 430),
		),
		core.NewShifting("right", 750,
			leaf("SC-ps", "SC", 0, 430),
			leaf("SD-ps", "SD", 0, 430),
		),
	)
	return core.MustAllocate(tree, 1240, policy).SupplyBudgets
}

// TestDistributedMatchesMonolithic is the central control-plane property:
// splitting the hierarchy across workers changes nothing about the
// budgets, for every policy.
func TestDistributedMatchesMonolithic(t *testing.T) {
	for _, policy := range []core.Policy{core.NoPriority, core.LocalPriority, core.GlobalPriority} {
		t.Run(policy.String(), func(t *testing.T) {
			room, budgets, _ := distributedFig2(t, policy)
			if _, _, err := room.RunPeriod(context.Background()); err != nil {
				t.Fatal(err)
			}
			want := monolithicFig2(policy)
			for supply, wb := range want {
				if got := budgets[supply]; math.Abs(float64(got-wb)) > 0.001 {
					t.Errorf("%v: budget[%s] = %v, want %v (monolithic)", policy, supply, got, wb)
				}
			}
		})
	}
}

func TestRackWorkerValidation(t *testing.T) {
	tree := core.NewShifting("r", 0, leaf("a", "A", 0, 400))
	if _, err := NewRackWorker("", tree, core.GlobalPriority, nil); err == nil {
		t.Error("empty ID should fail")
	}
	if _, err := NewRackWorker("r", nil, core.GlobalPriority, nil); err == nil {
		t.Error("nil tree should fail")
	}
	bad := core.NewShifting("r", 0)
	if _, err := NewRackWorker("r", bad, core.GlobalPriority, nil); err == nil {
		t.Error("invalid tree should fail")
	}
	w, err := NewRackWorker("r", tree, core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.ID() != "r" {
		t.Error("ID accessor wrong")
	}
	if err := w.SetTree(nil); err == nil {
		t.Error("SetTree(nil) should fail")
	}
	if err := w.SetTree(core.NewShifting("r2", 0, leaf("b", "B", 0, 300))); err != nil {
		t.Errorf("SetTree valid: %v", err)
	}
	// Cancelled contexts are honored.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Gather(ctx); err == nil {
		t.Error("Gather with cancelled context should fail")
	}
	if err := w.ApplyBudget(ctx, 100); err == nil {
		t.Error("ApplyBudget with cancelled context should fail")
	}
}

func TestRackWorkerApplyBudgetUpdatesState(t *testing.T) {
	var got []power.Watts
	sink := func(_ string, b power.Watts) { got = append(got, b) }
	w, err := NewRackWorker("r", core.NewShifting("r", 0, leaf("a", "A", 0, 400)), core.GlobalPriority, sink)
	if err != nil {
		t.Fatal(err)
	}
	if w.LastAllocation() != nil {
		t.Error("no allocation expected before first budget")
	}
	if err := w.ApplyBudget(context.Background(), 350); err != nil {
		t.Fatal(err)
	}
	if w.LastBudget() != 350 {
		t.Errorf("last budget = %v", w.LastBudget())
	}
	if w.LastAllocation() == nil || len(got) != 1 {
		t.Error("allocation/sink not updated")
	}
	if got[0] != 350 {
		t.Errorf("sink budget = %v, want 350", got[0])
	}
}

func TestRoomWorkerValidation(t *testing.T) {
	if _, err := NewRoomWorker(nil, 0, core.GlobalPriority, nil); err == nil {
		t.Error("nil tree should fail")
	}
	noProxies := core.NewShifting("top", 0, leaf("a", "A", 0, 400))
	if _, err := NewRoomWorker(noProxies, 0, core.GlobalPriority, nil); err == nil {
		t.Error("tree without proxies should fail")
	}
	tree := core.NewShifting("top", 0, core.NewProxy("p1", core.NewSummary()))
	if _, err := NewRoomWorker(tree, 0, core.GlobalPriority, map[string]RackClient{}); err == nil {
		t.Error("proxy without client should fail")
	}
	tree2 := core.NewShifting("top2", 0, core.NewProxy("p2", core.NewSummary()))
	if _, err := NewRoomWorker(tree2, 0, core.GlobalPriority, map[string]RackClient{
		"p2": LocalClient{}, "ghost": LocalClient{},
	}); err == nil {
		t.Error("client without proxy should fail")
	}
}

// failingClient always errors, standing in for a crashed rack worker.
type failingClient struct{}

func (failingClient) Gather(context.Context) (core.Summary, error) {
	return core.Summary{}, context.DeadlineExceeded
}
func (failingClient) ApplyBudget(context.Context, power.Watts) error {
	return context.DeadlineExceeded
}

func TestRoomWorkerToleratesRackFailure(t *testing.T) {
	budgets := make(map[string]power.Watts)
	var mu sync.Mutex
	sink := func(id string, b power.Watts) { mu.Lock(); budgets[id] = b; mu.Unlock() }
	okWorker, err := NewRackWorker("ok", core.NewShifting("ok", 0, leaf("a", "A", 0, 400)),
		core.GlobalPriority, sink)
	if err != nil {
		t.Fatal(err)
	}
	tree := core.NewShifting("top", 0,
		core.NewProxy("ok", core.NewSummary()),
		core.NewProxy("dead", core.NewSummary()),
	)
	room, err := NewRoomWorker(tree, 1000, core.GlobalPriority, map[string]RackClient{
		"ok":   LocalClient{Worker: okWorker},
		"dead": failingClient{},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := room.RunPeriod(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The dead rack has never been gathered, so its budget push is held
	// rather than attempted (and certainly not pushed a zero budget).
	if stats.GatherErrors != 1 || stats.ApplyErrors != 0 || stats.BudgetsHeld != 1 {
		t.Errorf("stats = %+v, want one gather error and one held budget", stats)
	}
	// The healthy rack still got its budget.
	if budgets["a"] < 270 {
		t.Errorf("healthy rack budget = %v", budgets["a"])
	}
	if room.LastAllocation() == nil {
		t.Error("allocation missing")
	}
}

func TestRoomWorkerRunLoop(t *testing.T) {
	room, budgets, _ := distributedFig2(t, core.GlobalPriority)
	ctx, cancel := context.WithCancel(context.Background())
	var periods int
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		room.Run(ctx, 10*time.Millisecond, func(s PeriodStats, err error) {
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			periods++
			if periods >= 3 {
				cancel()
			}
			mu.Unlock()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run loop did not exit")
	}
	mu.Lock()
	defer mu.Unlock()
	if periods < 3 {
		t.Errorf("periods = %d", periods)
	}
	if budgets["SA-ps"] < 400 {
		t.Errorf("SA budget = %v after loop", budgets["SA-ps"])
	}
}

// TestTCPTransportEndToEnd runs the distributed Figure 2 over real TCP
// sockets and verifies the budgets match the monolithic allocation.
func TestTCPTransportEndToEnd(t *testing.T) {
	budgets := make(map[string]power.Watts)
	var mu sync.Mutex
	sink := func(id string, b power.Watts) { mu.Lock(); budgets[id] = b; mu.Unlock() }
	mkWorker := func(id string, leaves ...*core.Node) *RackWorker {
		w, err := NewRackWorker(id, core.NewShifting(id, 750, leaves...), core.GlobalPriority, sink)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	left := mkWorker("left", leaf("SA-ps", "SA", 1, 430), leaf("SB-ps", "SB", 0, 430))
	right := mkWorker("right", leaf("SC-ps", "SC", 0, 430), leaf("SD-ps", "SD", 0, 430))

	leftSrv, err := ServeRack(left, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leftSrv.Close()
	rightSrv, err := ServeRack(right, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rightSrv.Close()

	leftClient := DialRack(leftSrv.Addr(), time.Second)
	defer leftClient.Close()
	rightClient := DialRack(rightSrv.Addr(), time.Second)
	defer rightClient.Close()

	if err := leftClient.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}

	roomTree := core.NewShifting("top", 1400,
		core.NewProxy("left", core.NewSummary()),
		core.NewProxy("right", core.NewSummary()),
	)
	room, err := NewRoomWorker(roomTree, 1240, core.GlobalPriority, map[string]RackClient{
		"left": leftClient, "right": rightClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := room.RunPeriod(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.GatherErrors != 0 || stats.ApplyErrors != 0 {
		t.Fatalf("transport errors: %+v", stats)
	}
	want := monolithicFig2(core.GlobalPriority)
	mu.Lock()
	defer mu.Unlock()
	for supply, wb := range want {
		if got := budgets[supply]; math.Abs(float64(got-wb)) > 0.001 {
			t.Errorf("budget[%s] = %v, want %v", supply, got, wb)
		}
	}
}

func TestTCPClientFailuresAndReconnect(t *testing.T) {
	w, err := NewRackWorker("r", core.NewShifting("r", 0, leaf("a", "A", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeRack(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := DialRack(srv.Addr(), 500*time.Millisecond)
	defer client.Close()
	if _, err := client.Gather(context.Background()); err != nil {
		t.Fatalf("first gather: %v", err)
	}
	// Server restart: the client reconnects on the next call.
	addr := srv.Addr()
	srv.Close()
	if _, err := client.Gather(context.Background()); err == nil {
		t.Error("gather against closed server should fail")
	}
	srv2, err := ServeRack(w, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := client.Gather(context.Background()); err != nil {
		t.Errorf("gather after reconnect: %v", err)
	}
	// Cancelled context short-circuits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Gather(ctx); err == nil {
		t.Error("cancelled context should fail")
	}
}

func TestWireProtocolErrors(t *testing.T) {
	w, err := NewRackWorker("r", core.NewShifting("r", 0, leaf("a", "A", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeRack(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if resp := srv.handle(wireRequest{Op: "bogus"}, nil); resp.OK {
		t.Error("unknown op should fail")
	}
	if resp := srv.handle(wireRequest{Op: opPing}, nil); !resp.OK {
		t.Error("ping should succeed")
	}
	if err := ServeRackNilCheck(); err == nil {
		t.Error("nil worker should fail")
	}
}

// ServeRackNilCheck exists to exercise the nil-worker guard without
// binding a socket.
func ServeRackNilCheck() error {
	_, err := ServeRack(nil, "127.0.0.1:0")
	return err
}

// TestSummaryWireRoundTrip gathers over TCP from a rack whose only server
// sits at priority 3: its metrics must survive the wire at that level.
func TestSummaryWireRoundTrip(t *testing.T) {
	w, err := NewRackWorker("r", core.NewShifting("r", 0, leaf("a", "A", 3, 450)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeRack(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialRack(srv.Addr(), time.Second)
	defer client.Close()
	got, err := client.Gather(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.CapMin(3) != 270 || got.Request(3) != 450 || got.Constraint != 490 {
		t.Errorf("round-tripped summary = %+v", got)
	}
}
