package controlplane

import (
	"context"
	"fmt"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
)

// benchStubClient answers gathers with a fixed pre-built summary and
// swallows pushes, so the benchmark measures only the room-side fan-out
// and allocation machinery.
type benchStubClient struct{ s core.Summary }

func (c *benchStubClient) Gather(context.Context) (core.Summary, error) { return c.s, nil }
func (c *benchStubClient) ApplyBudget(context.Context, power.Watts) error {
	return nil
}

// BenchmarkRoomRunPeriod measures one full gather→allocate→push control
// period over 64 in-process stub racks. The per-period steady state
// should stay near allocation-free: the fan-out engine, hold maps, and
// allocator are all reused, leaving the engine snapshot as the dominant
// remaining per-period allocation.
func BenchmarkRoomRunPeriod(b *testing.B) {
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
		racks*450*7, core.GlobalPriority, clients)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, stats, err := room.RunPeriod(ctx); err != nil {
		b.Fatal(err)
	} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
		b.Fatalf("warmup period degraded: %+v", stats)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := room.RunPeriod(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRackTree builds the paper's rack: n servers, one supply each,
// under an unconstrained shifting node, every third server priority 1.
func benchRackTree(n int) *core.Node {
	leaves := make([]*core.Node, n)
	for i := range leaves {
		prio := core.Priority(3)
		if i%3 == 0 {
			prio = 1
		}
		id := fmt.Sprintf("srv%03d", i)
		leaves[i] = core.NewLeaf(id, core.SupplyLeaf{
			SupplyID: id, ServerID: id, Priority: prio, Share: 1,
			CapMin: 270, CapMax: 490, Demand: power.Watts(300 + (i*37)%190),
		})
	}
	return core.NewShifting("rack", 0, leaves...)
}

// BenchmarkRackWorkerPeriod measures the rack's share of a control
// period — one gather and one budget application over 40 servers — on
// the worker's persistent engine. Steady state allocates only the
// returned summary (TestRackWorkerSteadyStateAllocs holds it there).
func BenchmarkRackWorkerPeriod(b *testing.B) {
	w, err := NewRackWorker("rack", benchRackTree(40), core.GlobalPriority, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	s, err := w.Gather(ctx)
	if err != nil {
		b.Fatal(err)
	}
	budget := s.TotalDemand() * 85 / 100
	if err := w.ApplyBudget(ctx, budget); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Gather(ctx); err != nil {
			b.Fatal(err)
		}
		if err := w.ApplyBudget(ctx, budget); err != nil {
			b.Fatal(err)
		}
	}
}
