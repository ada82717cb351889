package controlplane

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// batchFixture serves three distinguishable rack workers from one
// multi-rack server and returns a connected client.
func batchFixture(t *testing.T, clientOpts, serverOpts []Option) (*TCPClient, map[string]*RackWorker) {
	t.Helper()
	workers := make(map[string]*RackWorker)
	serve := make(map[string]RackClient)
	for i, id := range []string{"ra", "rb", "rc"} {
		tree := core.NewShifting(id, 950,
			leaf(id+"-s0", id+"-s0", 0, power.Watts(380+20*i)),
			leaf(id+"-s1", id+"-s1", 0, power.Watts(380+20*i)),
		)
		w, err := NewRackWorker(id, tree, core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		workers[id] = w
		serve[id] = w
	}
	srv, err := ServeRacks(serve, "127.0.0.1:0", serverOpts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := DialRack(srv.Addr(), 2*time.Second, clientOpts...)
	t.Cleanup(func() { c.Close() })
	return c, workers
}

func TestServeRacksRouting(t *testing.T) {
	c, _ := batchFixture(t, nil, nil)
	ctx := context.Background()

	// Routed singles hit the named rack: demands differ per rack.
	sa, err := c.Rack("ra").Gather(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.Rack("rc").Gather(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sa.TotalDemand() >= sc.TotalDemand() {
		t.Errorf("routing mixed racks up: ra demand %v, rc demand %v", sa.TotalDemand(), sc.TotalDemand())
	}
	if err := c.Rack("ra").ApplyBudget(ctx, 800); err != nil {
		t.Fatal(err)
	}

	// Unknown rack is a clean per-call error, and the connection
	// survives it.
	if _, err := c.Rack("ghost").Gather(ctx); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("unknown rack gather error = %v", err)
	}
	if _, err := c.Rack("ra").Gather(ctx); err != nil {
		t.Errorf("gather after unknown-rack error: %v", err)
	}

	// An un-routed single on a multi-rack server has no default
	// worker to land on.
	if _, err := c.Gather(ctx); err == nil {
		t.Error("un-routed gather against multi-rack server should fail")
	}
}

func TestBatchOps(t *testing.T) {
	c, workers := batchFixture(t, nil, nil)
	ctx := context.Background()

	racks := []string{"ra", "rb", "rc", "ghost"}
	out := make([]GatherResult, len(racks))
	if err := c.GatherBatch(ctx, racks, out); err != nil {
		t.Fatal(err)
	}
	for i, id := range racks[:3] {
		if out[i].Err != nil {
			t.Fatalf("batch gather %s: %v", id, out[i].Err)
		}
		want := power.Watts(2 * (380 + 20*i))
		if got := out[i].Summary.TotalDemand(); math.Abs(float64(got-want)) > 0.001 {
			t.Errorf("batch gather %s demand = %v, want %v", id, got, want)
		}
	}
	if out[3].Err == nil || !strings.Contains(out[3].Err.Error(), "ghost") {
		t.Errorf("batch gather unknown rack err = %v", out[3].Err)
	}

	budgets := []BatchBudget{{Rack: "ra", Budget: 700}, {Rack: "ghost", Budget: 1}, {Rack: "rc", Budget: 900}}
	errs := make([]error, len(budgets))
	if err := c.ApplyBudgetBatch(ctx, budgets, errs); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("batch budget errs = %v", errs)
	}
	if errs[1] == nil {
		t.Error("batch budget to unknown rack should error")
	}
	if got := workers["ra"].LastBudget(); math.Abs(float64(got-700)) > 0.001 {
		t.Errorf("ra budget = %v, want 700", got)
	}
	if got := workers["rc"].LastBudget(); math.Abs(float64(got-900)) > 0.001 {
		t.Errorf("rc budget = %v, want 900", got)
	}

	// Shape errors are caller bugs, reported before any I/O.
	if err := c.GatherBatch(ctx, racks, make([]GatherResult, 1)); err == nil {
		t.Error("mismatched out length should fail")
	}
	if err := c.GatherBatch(ctx, nil, nil); err != nil {
		t.Errorf("empty batch gather: %v", err)
	}
}

// TestBatchDeltaUnchanged: with a server-side delta deadband, a repeated
// batch gather squashes every unchanged summary to a marker entry and the
// client resolves them from its per-rack cache.
func TestBatchDeltaUnchanged(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, _ := batchFixture(t, []Option{WithTelemetry(reg)}, []Option{WithDeltaDeadband(1)})
	ctx := context.Background()

	racks := []string{"ra", "rb", "rc"}
	first := make([]GatherResult, len(racks))
	if err := c.GatherBatch(ctx, racks, first); err != nil {
		t.Fatal(err)
	}
	second := make([]GatherResult, len(racks))
	if err := c.GatherBatch(ctx, racks, second); err != nil {
		t.Fatal(err)
	}
	for i, id := range racks {
		if second[i].Err != nil {
			t.Fatalf("second gather %s: %v", id, second[i].Err)
		}
		if got, want := second[i].Summary.TotalDemand(), first[i].Summary.TotalDemand(); math.Abs(float64(got-want)) > 0.001 {
			t.Errorf("%s: delta-resolved demand %v, want %v", id, got, want)
		}
	}
	hits := reg.CounterVec("capmaestro_rpc_delta_hits_total",
		"Gather responses squashed to (server) or resolved from (client) an unchanged-summary delta frame.",
		"role").With("client").Value()
	if hits < float64(len(racks)) {
		t.Errorf("client delta hits = %v, want >= %d", hits, len(racks))
	}
}

// TestRoomBatchFramesPerPeriod: a room whose racks are handles on one
// shared TCPClient must issue exactly one gather frame and one push frame
// per period to that endpoint, regardless of rack count.
func TestRoomBatchFramesPerPeriod(t *testing.T) {
	reg := telemetry.NewRegistry()
	serve := make(map[string]RackClient)
	var proxies []*core.Node
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("fr%d", i)
		tree := core.NewShifting(id, 950,
			leaf(id+"-s0", id+"-s0", 0, 430),
			leaf(id+"-s1", id+"-s1", 0, 430),
		)
		w, err := NewRackWorker(id, tree, core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		serve[id] = w
		proxies = append(proxies, core.NewProxy(id, core.NewSummary()))
	}
	srv, err := ServeRacks(serve, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := DialRack(srv.Addr(), 2*time.Second)
	t.Cleanup(func() { c.Close() })

	clients := make(map[string]RackClient, len(serve))
	for id := range serve {
		clients[id] = c.Rack(id)
	}
	room, err := NewRoomWorker(core.NewShifting("room", 3000, proxies...), 2900,
		core.GlobalPriority, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := room.RunPeriod(context.Background()); err != nil {
		t.Fatal(err)
	} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
		t.Fatalf("period degraded: %+v", stats)
	}

	frames := reg.CounterVec("capmaestro_rpc_batch_frames_total",
		"Multi-rack batch frames sent (client) or handled (server).", "role").With("server").Value()
	racks := reg.CounterVec("capmaestro_rpc_batch_racks_total",
		"Racks multiplexed into batch frames; batch_racks/batch_frames is the realized batching factor.",
		"role").With("server").Value()
	if frames != 2 {
		t.Errorf("server batch frames = %v, want 2 (one gather + one push)", frames)
	}
	if racks != 8 {
		t.Errorf("server batch racks = %v, want 8 (4 racks × 2 frames)", racks)
	}
}
