package controlplane

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// TestRackSelfDigest pins the single-rack digest contribution: watt
// fields mirror the summary, headroom measures against the last pushed
// budget once one exists, and the outlier entry appears exactly when the
// rack violates its cap or runs low on headroom.
func TestRackSelfDigest(t *testing.T) {
	mk := func(demand, constraint power.Watts) core.Summary {
		s := core.NewSummary()
		s.Constraint = constraint
		s.SetLevel(0, demand/2, demand, demand)
		return s
	}
	var d fleetobs.StatDigest

	// No budget yet: headroom measures against the rack constraint.
	s := mk(800, 1000)
	rackSelfDigest(&d, "r0", &s, 0, false)
	if d.Racks != 1 || d.PowerW != 800 || d.BudgetW != 0 {
		t.Fatalf("pre-budget digest: %+v", d)
	}
	if d.HeadroomW != 200 || d.WorstHeadroomW != 200 || d.WorstHeadroomRack != "r0" {
		t.Fatalf("pre-budget headroom: %+v", d)
	}
	if len(d.Outliers) != 0 {
		t.Fatalf("comfortable rack flagged as outlier: %+v", d.Outliers)
	}

	// Budgeted below demand: cap violation, flagged with the violation
	// watts and reason.
	s = mk(800, 1000)
	rackSelfDigest(&d, "r0", &s, 700, true)
	if d.BudgetW != 700 || d.HeadroomW != -100 || d.ViolatingRacks != 1 || d.ViolationW != 100 {
		t.Fatalf("violating digest: %+v", d)
	}
	if len(d.Outliers) != 1 || d.Outliers[0].Reason != fleetobs.ReasonCapExceeded {
		t.Fatalf("violation outlier: %+v", d.Outliers)
	}

	// Headroom under 5% of demand: low-headroom outlier, no violation.
	s = mk(1000, 1200)
	rackSelfDigest(&d, "r0", &s, 1030, true)
	if d.ViolatingRacks != 0 {
		t.Fatalf("low-headroom rack counted as violating: %+v", d)
	}
	if len(d.Outliers) != 1 || d.Outliers[0].Reason != fleetobs.ReasonLowHeadroom {
		t.Fatalf("low-headroom outlier: %+v", d.Outliers)
	}
}

// TestFleetDigestThreeLevelWattExact builds a 3-level in-process
// hierarchy and checks the acceptance invariant: the room's fleet digest
// is watt-for-watt the sum of the per-rack summaries, covers every rack,
// carries level rows for each tier, feeds LastStats and the flight
// recorder, and lands one history sample per period.
func TestFleetDigestThreeLevelWattExact(t *testing.T) {
	const racks = 10
	clients := make(map[string]RackClient, racks)
	var wantPower float64
	for r := 0; r < racks; r++ {
		w, err := NewRackWorker(fmt.Sprintf("hr%02d", r), hierRackTree(r), core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		clients[w.ID()] = LocalClient{Worker: w}
		for s := 0; s < 3; s++ {
			wantPower += float64(350 + (r*37+s*113)%130)
		}
	}
	rec := flightrec.NewRecorder(8)
	h, err := BuildHierarchy(clients, HierarchyConfig{
		Levels: 3, FanOut: 3, Policy: core.GlobalPriority, Budget: 9000,
		Opts: []Option{WithFlightRecorder(rec)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const periods = 3
	for i := 0; i < periods; i++ {
		if _, stats, err := h.Room.RunPeriod(context.Background()); err != nil {
			t.Fatal(err)
		} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
			t.Fatalf("period %d degraded: %+v", i, stats)
		}
	}

	rep, ok := h.Room.FleetReport()
	if !ok {
		t.Fatal("no fleet report after periods")
	}
	if rep.Summary.Racks != racks {
		t.Fatalf("digest racks = %d, want %d", rep.Summary.Racks, racks)
	}
	if rep.Summary.PowerWatts != wantPower {
		t.Fatalf("digest power = %v W, want exactly %v", rep.Summary.PowerWatts, wantPower)
	}
	if rep.Fleet.RequestW <= 0 || rep.Fleet.CapMinW <= 0 {
		t.Fatalf("digest watt fields empty: %+v", rep.Fleet)
	}
	// Level rows: the aggregator tier plus the room's own row.
	if len(rep.Fleet.Levels) != 2 {
		t.Fatalf("digest level rows = %+v, want aggregator tier + room", rep.Fleet.Levels)
	}
	if rep.Fleet.Levels[0].Workers != racks {
		t.Fatalf("aggregator tier row covers %d workers, want %d", rep.Fleet.Levels[0].Workers, racks)
	}
	if rep.Fleet.Headroom.Count() != uint64(racks) {
		t.Fatalf("headroom hist holds %d racks, want %d", rep.Fleet.Headroom.Count(), racks)
	}

	// LastStats carries the headline summary for /healthz and scalesim.
	if got := h.Room.LastStats().Fleet; got != rep.Summary {
		t.Fatalf("LastStats fleet summary %+v != report summary %+v", got, rep.Summary)
	}
	// One history sample per period, watt-identical to the live digest.
	hist := h.Room.FleetHistory()
	if hist.Len() != periods {
		t.Fatalf("history holds %d samples, want %d", hist.Len(), periods)
	}
	last := hist.Snapshot()[periods-1]
	if last.PowerW != wantPower || last.Period != periods {
		t.Fatalf("history sample drifted: %+v", last)
	}
	// Flight-recorder periods are annotated with the digest.
	recs := rec.Records()
	if len(recs) == 0 {
		t.Fatal("no flight records")
	}
	fl := recs[len(recs)-1].Fleet
	if fl == nil || fl.Racks != racks || fl.PowerWatts != wantPower {
		t.Fatalf("flight record fleet note = %+v", fl)
	}
}

// TestTCPDigestBothCodecs proves the digest actually crosses the wire
// (rather than being synthesized client-side): an aggregator served over
// TCP contributes its level row, which only exists inside the digest
// payload. With digests not requested, the level row must vanish and the
// aggregator collapses to one synthesized rack.
func TestTCPDigest(t *testing.T) {
	var aggProxies []*core.Node
	childMap := make(map[string]RackClient, 2)
	var wantPower float64
	for r := 0; r < 2; r++ {
		w, err := NewRackWorker(fmt.Sprintf("hr%02d", r), hierRackTree(r), core.GlobalPriority, nil)
		if err != nil {
			t.Fatal(err)
		}
		childMap[w.ID()] = LocalClient{Worker: w}
		aggProxies = append(aggProxies, core.NewProxy(w.ID(), core.NewSummary()))
		for s := 0; s < 3; s++ {
			wantPower += float64(350 + (r*37+s*113)%130)
		}
	}
	agg, err := NewAggregator(core.NewShifting("agg0", 0, aggProxies...),
		core.GlobalPriority, childMap, WithHierarchyLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := ServeRacks(map[string]RackClient{"agg0": agg}, "127.0.0.1:0",
		WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	mkRoom := func(client RackClient) *RoomWorker {
		room, err := NewRoomWorker(
			core.NewShifting("room", 0, core.NewProxy("agg0", core.NewSummary())),
			2500, core.GlobalPriority, map[string]RackClient{"agg0": client})
		if err != nil {
			t.Fatal(err)
		}
		return room
	}

	// Digests requested: the aggregator's digest rides the gather
	// response, level row and per-rack resolution intact.
	on := DialRack(srv.Addr(), 2*time.Second, WithDigests(true), WithTelemetry(reg))
	t.Cleanup(func() { on.Close() })
	room := mkRoom(on)
	for i := 0; i < 2; i++ {
		if _, _, err := room.RunPeriod(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	rep, ok := room.FleetReport()
	if !ok {
		t.Fatal("no fleet report")
	}
	if rep.Summary.Racks != 2 || rep.Summary.PowerWatts != wantPower {
		t.Fatalf("digest over TCP: %+v, want 2 racks / %v W", rep.Summary, wantPower)
	}
	foundAggRow := false
	for _, l := range rep.Fleet.Levels {
		if l.Level == 1 && l.Workers == 2 {
			foundAggRow = true
		}
	}
	if !foundAggRow {
		t.Fatalf("aggregator level row did not cross the wire: %+v", rep.Fleet.Levels)
	}
	wire := reg.CounterVec("capmaestro_fleet_digest_wire_bytes_total", "", "role")
	if wire.With("server").Value() == 0 || wire.With("client").Value() == 0 {
		t.Fatalf("digest wire bytes not counted: server=%v client=%v",
			wire.With("server").Value(), wire.With("client").Value())
	}

	// Digests not requested: the transport must not ask for them,
	// and the room synthesizes the aggregator as a single rack with
	// no level-1 row.
	off := DialRack(srv.Addr(), 2*time.Second)
	t.Cleanup(func() { off.Close() })
	roomOff := mkRoom(off)
	for i := 0; i < 2; i++ {
		if _, _, err := roomOff.RunPeriod(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	repOff, ok := roomOff.FleetReport()
	if !ok {
		t.Fatal("no synthesized fleet report")
	}
	if repOff.Summary.Racks != 1 {
		t.Fatalf("digest-less transport still resolved racks: %+v", repOff.Summary)
	}
	if repOff.Summary.PowerWatts != wantPower {
		t.Fatalf("synthesized power = %v, want %v", repOff.Summary.PowerWatts, wantPower)
	}
	// Only the room's own row remains, covering its one client —
	// the aggregator's two-worker row never crossed.
	if len(repOff.Fleet.Levels) != 1 || repOff.Fleet.Levels[0].Workers != 1 {
		t.Fatalf("levels appeared without digests on the wire: %+v", repOff.Fleet.Levels)
	}
}

// TestDigestDeltaSquash: under the binary delta protocol, an unchanged
// gather squashes digest and summary together, and the client substitutes
// its cached digest — so delta frames lose no observability data.
func TestDigestDeltaSquash(t *testing.T) {
	w, err := NewRackWorker("dr0", hierRackTree(0), core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := ServeRack(w, "127.0.0.1:0", WithDeltaDeadband(1), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := DialRack(srv.Addr(), 2*time.Second, WithDigests(true), WithTelemetry(reg))
	t.Cleanup(func() { c.Close() })

	ctx := context.Background()
	_, first, err := c.GatherDigest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("first gather returned no digest")
	}
	_, second, err := c.GatherDigest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second == nil {
		t.Fatal("delta-squashed gather lost the digest")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache-substituted digest drifted:\nfirst  %+v\nsecond %+v", first, second)
	}
	hits := reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role").With("client").Value()
	if hits == 0 {
		t.Fatal("second identical gather did not delta-squash")
	}
}

// TestDigestZeroExtraRPCs pins the piggyback guarantee: enabling digests
// adds zero RPC frames — a batched room period still issues exactly one
// gather frame and one push frame, with the digest bytes riding inside.
func TestDigestZeroExtraRPCs(t *testing.T) {
	run := func(digests bool) (frames, digestBytes float64) {
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
		opts := []Option{WithTelemetry(reg)}
		if digests {
			opts = append(opts, WithDigests(true))
		}
		c := DialRack(srv.Addr(), 2*time.Second, opts...)
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
		frames = reg.CounterVec("capmaestro_rpc_batch_frames_total", "", "role").With("server").Value()
		digestBytes = reg.CounterVec("capmaestro_fleet_digest_wire_bytes_total", "", "role").With("server").Value()
		return frames, digestBytes
	}

	framesOff, bytesOff := run(false)
	framesOn, bytesOn := run(true)
	if framesOn != framesOff {
		t.Fatalf("digests changed the frame count: on=%v off=%v", framesOn, framesOff)
	}
	if framesOn != 2 {
		t.Fatalf("batched period used %v frames, want 2", framesOn)
	}
	if bytesOff != 0 {
		t.Fatalf("digest bytes counted with digests off: %v", bytesOff)
	}
	if bytesOn == 0 {
		t.Fatal("digests on but no digest bytes rode the batch frames")
	}
}
