// Day in the life: everything working together over a compressed 24-hour
// cycle — diurnal load swings, a scheduler placing and completing a
// critical job, a demand-response event trimming the utility budget, and
// a feed failure at the worst possible moment. Throughout, CapMaestro
// keeps every breaker safe and every high-priority watt flowing.
//
//	go run ./examples/dayinthelife
//
// With -telemetry-addr HOST:PORT the run serves live metrics on /metrics
// (plus /healthz and /debug/vars) and stays up after the day completes so
// the final state can be scraped; interrupt to exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"capmaestro"
	"capmaestro/internal/logging"
	"capmaestro/internal/workload"
)

const serversPerFeedCDU = 4

func main() {
	telAddr := flag.String("telemetry-addr", "",
		"HOST:PORT for /metrics, /healthz, and /debug/vars (empty disables)")
	traceBuffer := flag.Int("trace-buffer", 64,
		"control periods retained by the flight recorder on /debug/periods and /debug/trace.json (0 disables)")
	sloRules := flag.String("slo-rules", "",
		"JSON alert-rule file for the safety-SLO tracker on /debug/slo (empty uses the built-in rules)")
	logOpts := logging.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logOpts.Logger(os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	var rec *capmaestro.FlightRecorder
	if *traceBuffer > 0 {
		rec = capmaestro.NewFlightRecorder(*traceBuffer)
	}
	var rules []capmaestro.SLORule
	if *sloRules != "" {
		if rules, err = capmaestro.LoadSLORules(*sloRules); err != nil {
			log.Fatal(err)
		}
	}
	var reg *capmaestro.TelemetryRegistry
	var ts *capmaestro.TelemetryServer
	if *telAddr != "" {
		reg = capmaestro.NewTelemetryRegistry()
		if ts, err = capmaestro.ServeTelemetry(reg, *telAddr); err != nil {
			log.Fatal(err)
		}
		defer ts.Close()
		capmaestro.MountFlightRecorder(ts, rec)
		fmt.Printf("telemetry on http://%s/metrics\n\n", ts.Addr())
	}
	// The safety-SLO tracker measures the paper's headline claim live:
	// every fault opens an exposure window, and closing it is scored
	// against the breaker's time-to-trip at the observed overload.
	tracker, err := capmaestro.NewSLOTracker(capmaestro.SLOConfig{
		Rules:    rules,
		Registry: reg,
		Recorder: rec,
		Logger:   logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	capmaestro.MountSLO(ts, tracker)
	// Two feeds, one 1.6 kW-rated CDU each, four dual-corded servers.
	mkFeed := func(feed capmaestro.FeedID) *capmaestro.TopologyNode {
		root := capmaestro.NewTopologyNode(string(feed), capmaestro.KindUtility, 0)
		root.Feed = feed
		cdu := root.AddChild(capmaestro.NewTopologyNode(string(feed)+"-cdu", capmaestro.KindCDU, 1600))
		for i := 0; i < serversPerFeedCDU; i++ {
			id := fmt.Sprintf("node%d", i)
			cdu.AddChild(capmaestro.NewTopologySupply(id+"-"+string(feed), id, 0.5))
		}
		return root
	}
	topo, err := capmaestro.NewTopology(mkFeed("A"), mkFeed("B"))
	if err != nil {
		log.Fatal(err)
	}
	servers := map[string]capmaestro.ServerSpec{}
	for i := 0; i < serversPerFeedCDU; i++ {
		servers[fmt.Sprintf("node%d", i)] = capmaestro.ServerSpec{Utilization: 0.2}
	}
	derating := capmaestro.FullRating()
	s, err := capmaestro.NewSimulator(capmaestro.SimConfig{
		Topology: topo,
		Servers:  servers,
		Policy:   capmaestro.GlobalPriority,
		RootBudgets: map[capmaestro.FeedID]capmaestro.Watts{
			"A": 1600, "B": 1600,
		},
		Derating:       &derating,
		Telemetry:      reg,
		Logger:         logger,
		FlightRecorder: rec,
		SLO:            tracker,
	})
	if err != nil {
		log.Fatal(err)
	}
	sched, err := capmaestro.NewScheduler(
		[]capmaestro.SchedServer{
			{ID: "node0", Cores: 28}, {ID: "node1", Cores: 28},
			{ID: "node2", Cores: 28}, {ID: "node3", Cores: 28},
		},
		func(serverID string, _, new capmaestro.Priority) {
			if err := s.SetPriority(serverID, new); err != nil {
				log.Fatal(err)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	profile := workload.DefaultDiurnalProfile()
	profile.Peak = 0.95
	status := func(label string) {
		var total capmaestro.Watts
		for id := range servers {
			total += s.Server(id).ACPower()
		}
		fmt.Printf("%-32s fleet %6.0f W   node0 %5.1f W (throttle %4.1f%%)   tripped=%d\n",
			label, float64(total),
			float64(s.Server("node0").ACPower()), s.Server("node0").ThrottleLevel()*100,
			len(s.TrippedBreakers()))
	}
	setLoad := func(hour int) {
		u := profile.At(time.Duration(hour) * time.Hour)
		for id := range servers {
			s.SetUtilization(id, u)
		}
	}

	fmt.Println("A compressed day for a 4-server, dual-feed pod (Global Priority):")
	fmt.Println()

	setLoad(4)
	s.Run(time.Minute)
	status("04:00 overnight trough")

	setLoad(10)
	s.Run(time.Minute)
	status("10:00 morning ramp")

	// A critical batch lands on node0.
	if _, err := sched.Submit(capmaestro.Job{ID: "quarterly-close", Cores: 16, Priority: 1}); err != nil {
		log.Fatal(err)
	}
	setLoad(14)
	s.Run(time.Minute)
	status("14:00 critical job on node0")

	// Peak load and the utility calls a demand-response event: the pod
	// must shed to 1.7 kW. Low-priority servers absorb it.
	setLoad(16)
	s.SetRootBudget("A", 850)
	s.SetRootBudget("B", 850)
	s.Run(90 * time.Second)
	status("16:00 peak + demand response")

	// The event ends; moments later feed B fails at full peak load.
	s.SetRootBudget("A", 1600)
	s.SetRootBudget("B", 1600)
	s.FailFeed("B")
	s.Run(2 * time.Minute)
	status("17:30 feed B failure at peak")

	// Evening: feed restored, job finishes.
	s.RestoreFeed("B")
	if err := sched.Remove("quarterly-close"); err != nil {
		log.Fatal(err)
	}
	setLoad(22)
	s.Run(time.Minute)
	status("22:00 recovered evening")

	fmt.Println()
	if len(s.TrippedBreakers()) == 0 && len(s.InvariantViolations()) == 0 {
		fmt.Println("The whole day passed without a tripped breaker or a budget violation;")
		fmt.Println("node0's critical job kept its power through the demand-response event")
		fmt.Println("and the feed failure.")
	} else {
		fmt.Printf("PROBLEMS: tripped=%v violations=%v\n",
			s.TrippedBreakers(), s.InvariantViolations())
	}

	// The safety-SLO scoreboard: how long the pod stayed exposed after each
	// fault, and how that compares to the breaker's trip window — the
	// paper's order-of-magnitude claim as a measured number.
	fmt.Println("\nTime-to-safe summary:")
	ok := true
	for i, w := range tracker.ClosedWindows() {
		if w.Ratio > 0 {
			fmt.Printf("  window %d (%s): exposed %.0f s, breaker would trip in %.0f s — margin %.0f×\n",
				i+1, strings.Join(w.Causes, "+"), w.DurationSec, w.MinTimeToTripSec, w.Margin())
		} else {
			fmt.Printf("  window %d (%s): exposed %.0f s, no breaker overload\n",
				i+1, strings.Join(w.Causes, "+"), w.DurationSec)
		}
	}
	fmt.Printf("  p50/p99 time-to-safe: %.0f s / %.0f s   peak trip risk: %.3f\n",
		tracker.TimeToSafeQuantile(0.5), tracker.TimeToSafeQuantile(0.99), tracker.PeakRisk())
	if m := tracker.WorstMargin(); m < 10 {
		fmt.Printf("  WORST MARGIN %.1f× — below the paper's 10× claim\n", m)
		ok = false
	} else {
		fmt.Printf("  worst margin %.0f× — clears the paper's 10× claim\n", tracker.WorstMargin())
	}
	fired, resolved := tracker.TransitionCounts("feed-exposure")
	if fired == 1 && resolved == 1 {
		fmt.Println("  feed-exposure alert fired and resolved exactly once (the feed failure)")
	} else {
		fmt.Printf("  UNEXPECTED feed-exposure transitions: fired %d, resolved %d (want 1/1)\n", fired, resolved)
		ok = false
	}
	if st := tracker.Status(); st != capmaestro.HealthOK {
		fmt.Printf("  SLO status %v with active alerts %+v\n", st, tracker.ActiveAlerts())
		ok = false
	}
	if !ok {
		os.Exit(1)
	}

	// Night shift: the same control loop as a distributed deployment —
	// rack workers behind real TCP sockets, the room worker gathering and
	// budgeting over the wire. Steady overnight load means most gathers
	// come back as few-byte "unchanged" delta frames.
	if err := distributedEpilogue(reg); err != nil {
		log.Fatal(err)
	}

	if *telAddr != "" {
		fmt.Println("\nday complete; telemetry still serving — Ctrl-C to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// distributedEpilogue replays the overnight steady state through the TCP
// control plane: two rack workers served on loopback, a room worker
// dialing them, and a handful of control periods so the wire's delta
// path engages.
func distributedEpilogue(reg *capmaestro.TelemetryRegistry) error {
	fmt.Println("\nNight shift, distributed: rack workers behind TCP")
	if reg == nil {
		reg = capmaestro.NewTelemetryRegistry()
	}
	opts := []capmaestro.ControlPlaneOption{
		capmaestro.WithControlPlaneTelemetry(reg),
		capmaestro.WithDeltaDeadband(0.5),
	}
	sink := func(string, capmaestro.Watts) {}
	mkLeaf := func(id string, prio capmaestro.Priority, demand capmaestro.Watts) *capmaestro.Node {
		return capmaestro.NewLeaf(id, capmaestro.SupplyLeaf{
			SupplyID: id, ServerID: id, Priority: prio, Share: 1,
			CapMin: 150, CapMax: 400, Demand: demand,
		})
	}
	racks := map[string]*capmaestro.RackWorker{}
	for name, leaves := range map[string][]*capmaestro.Node{
		"rack-east": {mkLeaf("e0", 1, 320), mkLeaf("e1", 0, 260)},
		"rack-west": {mkLeaf("w0", 0, 240), mkLeaf("w1", 0, 240)},
	} {
		w, err := capmaestro.NewRackWorker(name,
			capmaestro.NewShifting(name, 700, leaves...),
			capmaestro.GlobalPriority, sink, opts...)
		if err != nil {
			return err
		}
		racks[name] = w
	}
	clients := map[string]capmaestro.RackClient{}
	proxies := make([]*capmaestro.Node, 0, len(racks))
	for name, w := range racks {
		srv, err := capmaestro.ServeRack(w, "127.0.0.1:0", opts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		c := capmaestro.DialRack(srv.Addr(), 2*time.Second, opts...)
		defer c.Close()
		clients[name] = c
		proxies = append(proxies, capmaestro.NewProxyNode(name))
	}
	room, err := capmaestro.NewRoomWorker(
		capmaestro.NewShifting("contractual", 1400, proxies...),
		1200, capmaestro.GlobalPriority, clients, opts...)
	if err != nil {
		return err
	}
	const periods = 6
	for i := 0; i < periods; i++ {
		if _, _, err := room.RunPeriod(context.Background()); err != nil {
			return err
		}
	}
	stats := room.LastStats()
	deltaHits := reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role").With("client").Value()
	fmt.Printf("  %d control periods over TCP across %d racks, last period %d served / %d gather errors\n",
		periods, len(clients), stats.RacksServed, stats.GatherErrors)
	fmt.Printf("  unchanged-summary delta frames served from cache: %.0f\n", deltaHits)
	if deltaHits == 0 {
		return fmt.Errorf("%d steady periods over TCP but no gather was delta-squashed", periods)
	}
	return nil
}
