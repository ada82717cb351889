package controlplane

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/slo"
	"capmaestro/internal/telemetry"
)

// failGatherClient always fails to gather; budget pushes succeed.
type failGatherClient struct{ inner RackClient }

func (c failGatherClient) Gather(ctx context.Context) (core.Summary, error) {
	return core.Summary{}, errors.New("injected gather failure")
}

func (c failGatherClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	return c.inner.ApplyBudget(ctx, b)
}

func telemetryLeaf(id, srv string, demand power.Watts) *core.Node {
	return core.NewLeaf(id, core.SupplyLeaf{
		SupplyID: id, ServerID: srv, Priority: 0, Share: 1,
		CapMin: 270, CapMax: 490, Demand: demand,
	})
}

func telemetryRoom(t *testing.T, reg *telemetry.Registry, wrap func(RackClient) RackClient) *RoomWorker {
	t.Helper()
	mkRack := func(id, supply, srv string) RackClient {
		w, err := NewRackWorker(id,
			core.NewShifting(id, 600, telemetryLeaf(supply, srv, 400)),
			core.GlobalPriority, nil, WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		return LocalClient{Worker: w}
	}
	good := mkRack("rack-good", "g-ps", "g")
	bad := wrap(mkRack("rack-bad", "b-ps", "b"))
	tree := core.NewShifting("room", 1200,
		core.NewProxy("rack-good", core.NewSummary()),
		core.NewProxy("rack-bad", core.NewSummary()),
	)
	room, err := NewRoomWorker(tree, 1000, core.GlobalPriority,
		map[string]RackClient{"rack-good": good, "rack-bad": bad},
		WithTelemetry(reg), WithLogger(slog.New(slog.NewTextHandler(discard{}, nil))))
	if err != nil {
		t.Fatal(err)
	}
	return room
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestRoomWorkerTelemetry asserts phase-latency histograms and
// gather-error counters advance under an injected failing RackClient, and
// that the staleness gauge tracks consecutive failed periods.
func TestRoomWorkerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	room := telemetryRoom(t, reg, func(c RackClient) RackClient { return failGatherClient{inner: c} })

	for i := 0; i < 2; i++ {
		if _, _, err := room.RunPeriod(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`capmaestro_controlplane_gather_errors_total 2`,
		`capmaestro_controlplane_apply_errors_total 0`,
		`capmaestro_controlplane_periods_total 2`,
		`capmaestro_controlplane_phase_seconds_count{phase="gather"} 2`,
		`capmaestro_controlplane_phase_seconds_count{phase="allocate"} 2`,
		`capmaestro_controlplane_phase_seconds_count{phase="push"} 2`,
		`capmaestro_controlplane_racks 2`,
		`capmaestro_controlplane_budget_watts 1000`,
		`capmaestro_controlplane_rack_stale_periods{rack="rack-bad"} 2`,
		`capmaestro_controlplane_rack_stale_periods{rack="rack-good"} 0`,
		`capmaestro_rack_applies_total{rack="rack-good"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	stats := room.LastStats()
	if stats.GatherErrors != 1 || stats.RacksServed != 2 {
		t.Errorf("LastStats = %+v, want 1 gather error over 2 racks", stats)
	}
	if err := room.Healthy(); err != nil {
		t.Errorf("room with one live rack should be healthy, got %v", err)
	}
}

// TestRoomWorkerHealthFlips verifies /healthz semantics: the room turns
// unhealthy only when every rack fails to gather.
func TestRoomWorkerHealthFlips(t *testing.T) {
	reg := telemetry.NewRegistry()
	mk := func(id, supply, srv string) *RackWorker {
		w, err := NewRackWorker(id,
			core.NewShifting(id, 600, telemetryLeaf(supply, srv, 400)),
			core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := mk("ra", "a-ps", "a"), mk("rb", "b-ps", "b")
	tree := core.NewShifting("room", 1200,
		core.NewProxy("ra", core.NewSummary()), core.NewProxy("rb", core.NewSummary()))
	room, err := NewRoomWorker(tree, 1000, core.GlobalPriority, map[string]RackClient{
		"ra": failGatherClient{inner: LocalClient{Worker: a}},
		"rb": failGatherClient{inner: LocalClient{Worker: b}},
	}, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := room.Healthy(); err != nil {
		t.Errorf("pre-first-period room should report healthy, got %v", err)
	}
	if _, _, err := room.RunPeriod(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := room.Healthy(); err == nil {
		t.Error("room with all racks failing should be unhealthy")
	}
}

// TestTransportTelemetry checks RPC latency, byte, connection, and error
// metrics on both sides of the TCP transport.
func TestTransportTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	worker, err := NewRackWorker("rack",
		core.NewShifting("rack", 600, telemetryLeaf("s-ps", "s", 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeRack(worker, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialRack(srv.Addr(), time.Second, WithTelemetry(reg))
	defer client.Close()

	ctx := context.Background()
	if _, err := client.Gather(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.ApplyBudget(ctx, 400); err != nil {
		t.Fatal(err)
	}
	// A client pointed at a dead address counts a client-side RPC error.
	bogus := DialRack("127.0.0.1:1", 50*time.Millisecond, WithTelemetry(reg))
	defer bogus.Close()
	if err := bogus.Ping(ctx); err == nil {
		t.Fatal("expected ping error against dead address")
	}

	// Let the server finish accounting its side.
	deadline := time.Now().Add(2 * time.Second)
	check := func() []string {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		out := sb.String()
		var missing []string
		for _, want := range []string{
			`capmaestro_rpc_seconds_count{role="client",op="gather"} 1`,
			`capmaestro_rpc_seconds_count{role="client",op="budget"} 1`,
			`capmaestro_rpc_seconds_count{role="client",op="ping"} 2`,
			`capmaestro_rpc_seconds_count{role="server",op="gather"} 1`,
			`capmaestro_rpc_seconds_count{role="server",op="budget"} 1`,
			`capmaestro_rpc_errors_total{role="client",op="ping"} 1`,
			// One connection per side: gathers, pings, and budget
			// pushes share it.
			`capmaestro_rpc_open_connections{role="client"} 1`,
			`capmaestro_rpc_open_connections{role="server"} 1`,
		} {
			if !strings.Contains(out, want) {
				missing = append(missing, want)
			}
		}
		return missing
	}
	var missing []string
	for {
		if missing = check(); len(missing) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(missing) > 0 {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		t.Errorf("exposition missing %v\n%s", missing, sb.String())
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "capmaestro_rpc_bytes_total") &&
			strings.HasSuffix(line, " 0") {
			t.Errorf("byte counter did not advance: %s", line)
		}
	}
}

// TestRoomWorkerSLOAndDegraded drives a room with one permanently
// failing rack: the staleness samples fed through WithSLO must fire the
// rack-stale warn rule, Degraded must report the held rack, and the
// /healthz rollup must show "warn" while still serving 200.
func TestRoomWorkerSLOAndDegraded(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracker, err := slo.New(slo.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	mkRack := func(id, supply, srv string) RackClient {
		w, err := NewRackWorker(id,
			core.NewShifting(id, 600, telemetryLeaf(supply, srv, 400)),
			core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		return LocalClient{Worker: w}
	}
	tree := core.NewShifting("room", 1200,
		core.NewProxy("rack-good", core.NewSummary()),
		core.NewProxy("rack-bad", core.NewSummary()),
	)
	room, err := NewRoomWorker(tree, 1000, core.GlobalPriority,
		map[string]RackClient{
			"rack-good": mkRack("rack-good", "g-ps", "g"),
			"rack-bad":  failGatherClient{inner: mkRack("rack-bad", "b-ps", "b")},
		}, WithSLO(tracker))
	if err != nil {
		t.Fatal(err)
	}

	if err := room.Degraded(); err != nil {
		t.Errorf("pre-first-period Degraded = %v, want nil", err)
	}

	// The default rack-stale rule fires at ≥3 consecutive stale periods.
	for i := 0; i < 4; i++ {
		if _, _, err := room.RunPeriod(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	alerts := tracker.ActiveAlerts()
	found := false
	for _, a := range alerts {
		if a.Rule == "rack-stale" && a.Label == "rack-bad" {
			found = true
		}
		if a.Label == "rack-good" {
			t.Errorf("healthy rack raised an alert: %+v", a)
		}
	}
	if !found {
		t.Fatalf("rack-stale{rack-bad} not firing; active = %+v", alerts)
	}
	if tracker.Status() != telemetry.HealthWarn {
		t.Errorf("tracker status = %v, want warn", tracker.Status())
	}
	fired, resolved := tracker.TransitionCounts("rack-stale")
	if fired != 1 || resolved != 0 {
		t.Errorf("rack-stale transitions = %d/%d, want 1 fired, 0 resolved", fired, resolved)
	}

	// The never-gathered rack is held, so the worker reports degraded.
	err = room.Degraded()
	if err == nil || !strings.Contains(err.Error(), "held") {
		t.Errorf("Degraded = %v, want a held-rack report", err)
	}

	// End-to-end /healthz: degraded room + warn-level alert keep the
	// process at 200 with status "warn" — no restart-worthy condition.
	srv := telemetry.NewServer(reg)
	srv.AddWarnCheck("room-degraded", room.Degraded)
	srv.AddLeveledCheck("slo", tracker.HealthCheck)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || report.Status != "warn" {
		t.Fatalf("/healthz = %d %+v, want 200 warn", resp.StatusCode, report)
	}
	if !strings.Contains(report.Checks["slo"], "rack-stale") {
		t.Errorf("slo check verdict = %q", report.Checks["slo"])
	}
	if !strings.Contains(report.Checks["room-degraded"], "held") {
		t.Errorf("room-degraded verdict = %q", report.Checks["room-degraded"])
	}
}

// TestRoomAlertOrderIsFixed: a room whose four racks all go stale fires
// four rack-stale alerts in the same period. The room feeds the tracker
// its racks in a fixed order, so the alerts' flight-recorder annotations
// come out in one order, run after run.
func TestRoomAlertOrderIsFixed(t *testing.T) {
	run := func() string {
		rec := flightrec.NewRecorder(16)
		tracker, err := slo.New(slo.Config{Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		clients := make(map[string]RackClient)
		var proxies []*core.Node
		for _, id := range []string{"ra", "rb", "rc", "rd"} {
			clients[id] = failingClient{}
			proxies = append(proxies, core.NewProxy(id, core.NewSummary()))
		}
		room, err := NewRoomWorker(core.NewShifting("room", 0, proxies...), 1000, core.GlobalPriority,
			clients, WithSLO(tracker), WithFlightRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, _, err := room.RunPeriod(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var texts []string
		for _, r := range rec.Records() {
			for _, a := range r.Annotations {
				texts = append(texts, a.Text)
			}
		}
		if len(texts) != 4 {
			t.Fatalf("alert annotations = %q, want one per rack", texts)
		}
		return strings.Join(texts, "\n")
	}
	want := run()
	for i := 1; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d annotated alerts in another order:\n%s\nfirst run:\n%s", i, got, want)
		}
	}
}
