package controlplane

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// dumpTraceOnFailure registers a cleanup that, when the test failed and
// CAPMAESTRO_ARTIFACT_DIR is set, writes the recorder's Chrome trace there
// so CI uploads it for offline inspection in Perfetto / chrome://tracing.
// A no-op for local runs without the variable.
func dumpTraceOnFailure(t *testing.T, rec *flightrec.Recorder) {
	t.Helper()
	t.Cleanup(func() {
		dir := os.Getenv("CAPMAESTRO_ARTIFACT_DIR")
		if !t.Failed() || dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+"-trace.json")
		f, err := os.Create(path)
		if err != nil {
			t.Logf("artifact create: %v", err)
			return
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			t.Logf("trace write: %v", err)
			return
		}
		t.Logf("chrome trace written to %s", path)
	})
}

// switchableClient wraps a RackClient with a togglable gather failure and
// records every budget push that reaches it.
type switchableClient struct {
	inner RackClient

	mu          sync.Mutex
	failGathers bool
	pushes      []power.Watts
}

func (c *switchableClient) setGatherFails(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failGathers = v
}

func (c *switchableClient) budgetPushes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pushes)
}

func (c *switchableClient) recordedPushes() []power.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]power.Watts(nil), c.pushes...)
}

func (c *switchableClient) Gather(ctx context.Context) (core.Summary, error) {
	c.mu.Lock()
	fails := c.failGathers
	c.mu.Unlock()
	if fails {
		return core.Summary{}, fmt.Errorf("injected gather failure")
	}
	return c.inner.Gather(ctx)
}

func (c *switchableClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	c.mu.Lock()
	c.pushes = append(c.pushes, b)
	c.mu.Unlock()
	return c.inner.ApplyBudget(ctx, b)
}

// twoRackRoom builds a room over one healthy rack ("ok") and one
// switchable rack ("dark"), both with a single 270–490 W server.
func twoRackRoom(t *testing.T, budget power.Watts, darkFails bool, opts ...Option) (*RoomWorker, *switchableClient, *RackWorker) {
	t.Helper()
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
	dark := &switchableClient{inner: LocalClient{Worker: darkWorker}, failGathers: darkFails}
	tree := core.NewShifting("top", 0,
		core.NewProxy("ok", core.NewSummary()),
		core.NewProxy("dark", core.NewSummary()),
	)
	room, err := NewRoomWorker(tree, budget, core.GlobalPriority, map[string]RackClient{
		"ok":   LocalClient{Worker: okWorker},
		"dark": dark,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return room, dark, darkWorker
}

// TestNeverGatheredRackNeverPushed is the regression test for the
// control-plane robustness bug: a rack whose gather has never succeeded
// used to hold the zero-value proxy summary, be allocated 0 W, and then be
// pushed ApplyBudget(0) while potentially serving live load. It must never
// receive any ApplyBudget call until it has reported at least once.
func TestNeverGatheredRackNeverPushed(t *testing.T) {
	room, dark, darkWorker := twoRackRoom(t, 900, true)
	for period := 0; period < 4; period++ {
		_, stats, err := room.RunPeriod(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.GatherErrors != 1 || stats.BudgetsHeld != 1 {
			t.Fatalf("period %d stats = %+v, want 1 gather error and 1 held budget", period, stats)
		}
		if n := dark.budgetPushes(); n != 0 {
			t.Fatalf("period %d: never-gathered rack received %d pushes", period, n)
		}
	}
	// The rack recovers: its first successful gather resumes budget pushes
	// with a real, feasible budget.
	dark.setGatherFails(false)
	_, stats, err := room.RunPeriod(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.GatherErrors != 0 || stats.BudgetsHeld != 0 {
		t.Errorf("post-recovery stats = %+v", stats)
	}
	if n := dark.budgetPushes(); n != 1 {
		t.Fatalf("recovered rack pushes = %d, want 1", n)
	}
	if b := dark.recordedPushes()[0]; b < 270 {
		t.Errorf("recovered rack budget = %v, want at least its Pcap_min", b)
	}
	if b := darkWorker.LastBudget(); b < 270 {
		t.Errorf("recovered rack applied budget = %v", b)
	}
}

// TestFailsafeBudgetReservation: with WithFailsafeBudget, the room reserves
// exactly the failsafe for a never-gathered rack — shrinking what the live
// racks may draw — while still never pushing the dark rack a budget.
func TestFailsafeBudgetReservation(t *testing.T) {
	room, dark, _ := twoRackRoom(t, 700, true, WithFailsafeBudget(300))
	alloc, stats, err := room.RunPeriod(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.BudgetsHeld != 1 || dark.budgetPushes() != 0 {
		t.Fatalf("dark rack not held: stats=%+v pushes=%d", stats, dark.budgetPushes())
	}
	if got := alloc.NodeBudgets["dark"]; !power.ApproxEqual(got, 300, 0.001) {
		t.Errorf("failsafe reservation = %v, want 300", got)
	}
	// 700 W total − 300 W failsafe leaves 400 W for the live rack.
	if got := alloc.NodeBudgets["ok"]; !power.ApproxEqual(got, 400, 0.001) {
		t.Errorf("live rack budget = %v, want 400", got)
	}
}

// TestStaleRackHeldAfterBound: a rack that has reported before keeps
// receiving budgets (computed from its last summary) while within the
// staleness bound, and is held once the bound is exceeded.
func TestStaleRackHeldAfterBound(t *testing.T) {
	room, flaky, _ := twoRackRoom(t, 900, false, WithStalenessBound(2))
	run := func() PeriodStats {
		t.Helper()
		_, stats, err := room.RunPeriod(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	run() // period 1: both fresh
	if n := flaky.budgetPushes(); n != 1 {
		t.Fatalf("healthy rack pushes = %d, want 1", n)
	}
	flaky.setGatherFails(true)
	for i := 0; i < 2; i++ { // periods 2-3: stale but within bound
		if stats := run(); stats.BudgetsHeld != 0 {
			t.Fatalf("within-bound period held %d budgets", stats.BudgetsHeld)
		}
	}
	if n := flaky.budgetPushes(); n != 3 {
		t.Fatalf("within-bound pushes = %d, want 3", n)
	}
	if stats := run(); stats.BudgetsHeld != 1 { // period 4: bound exceeded
		t.Fatalf("beyond-bound stats = %+v, want 1 held budget", stats)
	}
	if n := flaky.budgetPushes(); n != 3 {
		t.Fatalf("beyond-bound pushes = %d, want pushes frozen at 3", n)
	}
	flaky.setGatherFails(false)
	if stats := run(); stats.BudgetsHeld != 0 {
		t.Fatalf("post-recovery stats = %+v", stats)
	}
	if n := flaky.budgetPushes(); n != 4 {
		t.Errorf("post-recovery pushes = %d, want 4", n)
	}
}

// blockingClient hangs every call until the context ends, standing in for
// a rack that never answers during shutdown.
type blockingClient struct{ started chan struct{} }

func (c *blockingClient) Gather(ctx context.Context) (core.Summary, error) {
	select {
	case c.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return core.Summary{}, ctx.Err()
}

func (c *blockingClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestRunCleanShutdown: cancelling the run context must not execute
// another period, and a cancellation mid-gather must not be recorded as
// rack failures (no spurious staleness, no committed period).
func TestRunCleanShutdown(t *testing.T) {
	reg := telemetry.NewRegistry()
	block := &blockingClient{started: make(chan struct{}, 1)}
	tree := core.NewShifting("top", 0, core.NewProxy("b", core.NewSummary()))
	room, err := NewRoomWorker(tree, 500, core.GlobalPriority,
		map[string]RackClient{"b": block}, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}

	// A context cancelled before Run starts executes zero periods.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	room.Run(pre, time.Millisecond, func(PeriodStats, error) {
		t.Error("onPeriod called for a pre-cancelled run")
	})

	// Cancelling mid-gather aborts the period without reporting it.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		room.Run(ctx, time.Millisecond, func(PeriodStats, error) {
			t.Error("onPeriod called for a cancelled period")
		})
		close(done)
	}()
	<-block.started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after cancellation")
	}
	if stats := room.LastStats(); stats != (PeriodStats{}) {
		t.Errorf("aborted period committed stats: %+v", stats)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`capmaestro_controlplane_periods_total 0`,
		`capmaestro_controlplane_rack_stale_periods{rack="b"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shutdown left spurious telemetry; missing %q in\n%s", want, out)
		}
	}
}

// chaosSeed returns the deterministic seed for the chaos test, overridable
// via CAPMAESTRO_CHAOS_SEED so CI failures reproduce exactly.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CAPMAESTRO_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CAPMAESTRO_CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return 42
}

// TestRoomWorkerChaos drives the room worker through many control periods
// against a healthy rack, a flaky rack, a slow rack, and a rack partitioned
// from startup (healed mid-test), asserting the degraded-mode invariants:
//
//   - no rack is ever pushed a budget before its first successful gather;
//   - every pushed budget covers the rack's minimums and respects its limit,
//     and the per-period total never exceeds the room budget;
//   - Healthy() and LastStats() answer quickly while a period's RPCs are in
//     flight.
func TestRoomWorkerChaos(t *testing.T) {
	seed := chaosSeed(t)
	const (
		racks      = 4
		periods    = 40
		healAfter  = 15
		rackLimit  = 750
		rackCapMin = 2 * 270
		roomBudget = 2400
	)

	reg := telemetry.NewRegistry()
	rec := flightrec.NewRecorder(periods)
	dumpTraceOnFailure(t, rec)
	workers := make([]*RackWorker, racks)
	recorders := make([]*switchableClient, racks)
	faulty := make([]*FaultyClient, racks)
	clients := make(map[string]RackClient, racks)
	proxies := make([]*core.Node, racks)
	for i := 0; i < racks; i++ {
		id := fmt.Sprintf("rack%d", i)
		w, err := NewRackWorker(id, core.NewShifting(id, rackLimit,
			leaf(id+"-s0", id+"-S0", 0, 430),
			leaf(id+"-s1", id+"-S1", core.Priority(i%2), 430)),
			core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		recorders[i] = &switchableClient{inner: LocalClient{Worker: w}}
		faulty[i] = NewFaultyClient(recorders[i], seed+int64(i))
		clients[id] = faulty[i]
		proxies[i] = core.NewProxy(id, core.NewSummary())
	}
	faulty[1].SetErrorRate(0.3)
	faulty[2].SetLatency(5 * time.Millisecond)
	faulty[3].SetPartitioned(true)
	faulty[3].SetPartitionTimeout(50 * time.Millisecond)

	room, err := NewRoomWorker(core.NewShifting("room", 2600, proxies...),
		roomBudget, core.GlobalPriority, clients,
		WithTelemetry(reg), WithFlightRecorder(rec),
		WithStalenessBound(2), WithFailsafeBudget(rackCapMin))
	if err != nil {
		t.Fatal(err)
	}

	// Probe the observable surface concurrently: it must never block on the
	// in-flight RPCs (the partitioned rack hangs for 50 ms every period).
	probeDone := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		probes := 0
		for {
			select {
			case <-probeDone:
				if probes == 0 {
					t.Error("prober never ran")
				}
				return
			default:
			}
			start := time.Now()
			room.Healthy()
			room.LastStats()
			room.LastAllocation()
			if d := time.Since(start); d > time.Second {
				t.Errorf("observable state blocked for %v during a control period", d)
			}
			probes++
			time.Sleep(time.Millisecond)
		}
	}()

	for period := 0; period < periods; period++ {
		if period == healAfter {
			faulty[3].SetPartitioned(false)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		alloc, stats, err := room.RunPeriod(ctx)
		cancel()
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		if stats.RacksServed != racks {
			t.Fatalf("period %d stats = %+v", period, stats)
		}
		var total power.Watts
		for i := 0; i < racks; i++ {
			id := fmt.Sprintf("rack%d", i)
			b := alloc.NodeBudgets[id]
			total += b
			if b > rackLimit+0.001 {
				t.Fatalf("period %d: %s budget %v exceeds rack limit", period, id, b)
			}
			// Zero successful gathers → zero pushes, ever.
			if faulty[i].InnerGathers() == 0 && recorders[i].budgetPushes() > 0 {
				t.Fatalf("period %d: %s pushed before any successful gather", period, id)
			}
		}
		if total > roomBudget+0.001 {
			t.Fatalf("period %d: rack budgets sum to %v > room budget", period, total)
		}
	}
	close(probeDone)
	probeWG.Wait()

	// Every budget that reached a rack was feasible: at least the rack's
	// aggregate Pcap_min, at most its breaker limit.
	for i := 0; i < racks; i++ {
		pushes := recorders[i].recordedPushes()
		if i != 3 && len(pushes) == 0 {
			t.Errorf("rack%d never received a budget", i)
		}
		for _, b := range pushes {
			if b < rackCapMin-0.001 || b > rackLimit+0.001 {
				t.Errorf("rack%d received infeasible budget %v", i, b)
			}
		}
	}
	// The healed rack came back: gathered, budgeted, applied.
	if faulty[3].InnerGathers() == 0 || recorders[3].budgetPushes() == 0 {
		t.Errorf("healed rack never resumed: gathers=%d pushes=%d",
			faulty[3].InnerGathers(), recorders[3].budgetPushes())
	}
	if b := workers[3].LastBudget(); b < rackCapMin-0.001 {
		t.Errorf("healed rack applied budget = %v", b)
	}
	if err := room.Healthy(); err != nil {
		t.Errorf("room unhealthy at end of chaos run: %v", err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "capmaestro_controlplane_held_pushes_total") ||
		strings.Contains(out, "capmaestro_controlplane_held_pushes_total 0\n") {
		t.Error("held-pushes counter did not advance under chaos")
	}
	if !strings.Contains(out, "capmaestro_controlplane_unseen_racks 0") {
		t.Error("unseen-racks gauge not zero after all racks reported")
	}
}
