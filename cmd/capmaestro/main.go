// Command capmaestro runs the CapMaestro control plane — rack workers
// behind real TCP sockets under a room worker — against simulated servers.
//
// Usage:
//
//	capmaestro -demo distributed  # three control periods, budgets printed
//	capmaestro -demo serve        # full stack running until interrupted
//
// The paper's figures and tables (Fig. 5, Table 3, ...) are regenerated by
// cmd/experiments, and scripted situations such as an N+N feed failure by
// cmd/scenariorun.
//
// With -telemetry-addr HOST:PORT the process serves Prometheus metrics on
// /metrics, liveness on /healthz, a JSON snapshot on /debug/vars, and — in
// the serve demo — the fleet observability drill-down on /debug/fleet and
// /debug/fleet/history; the serve demo defaults the address to :9090.
// Every demo is deterministic and uses only the simulated substrate, so it
// runs anywhere.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"capmaestro/internal/capping"
	"capmaestro/internal/controlplane"
	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/logging"
	"capmaestro/internal/power"
	"capmaestro/internal/server"
	"capmaestro/internal/slo"
	"capmaestro/internal/telemetry"
)

func main() {
	demo := flag.String("demo", "distributed", "distributed | serve")
	telAddr := flag.String("telemetry-addr", "",
		"HOST:PORT for the /metrics, /healthz, and /debug/vars endpoints (empty disables; serve demo defaults to :9090)")
	stalePeriods := flag.Int("staleness-periods", controlplane.DefaultStalenessBound,
		"serve demo: consecutive failed gathers before the room worker holds a rack's budget pushes (<=0 never holds)")
	failsafe := flag.Float64("failsafe-budget", 0,
		"serve demo: watts reserved for a rack that has never reported a summary (0 excludes it from allocation)")
	rpcRetries := flag.Int("rpc-retries", controlplane.DefaultRPCRetries,
		"serve demo: transport retries per rack RPC after a failure (<=0 disables)")
	rpcBackoff := flag.Duration("rpc-retry-backoff", controlplane.DefaultRPCRetryBackoff,
		"serve demo: initial backoff between rack RPC retries (doubles per retry)")
	traceBuffer := flag.Int("trace-buffer", flightrec.DefaultBufferSize,
		"serve demo: control periods retained by the flight recorder on /debug/periods and /debug/trace.json (0 disables)")
	sloRules := flag.String("slo-rules", "",
		"serve demo: JSON alert-rule file for the safety-SLO tracker on /debug/slo (empty uses the built-in rules)")
	fleetDigests := flag.Bool("fleet-digests", true,
		"serve demo: request per-rack stat digests in-band on gathers and serve the merged fleet rollup on /debug/fleet")
	fleetHistory := flag.Int("fleet-history", 0,
		"serve demo: control periods retained by the /debug/fleet/history ring (<=0 uses the built-in default)")
	pprofOn := flag.Bool("pprof", false,
		"mount net/http/pprof profiling handlers on the telemetry server under /debug/pprof/")
	logOpts := logging.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := logOpts.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	addr := *telAddr
	if addr == "" && *demo == "serve" {
		addr = ":9090"
	}
	var reg *telemetry.Registry
	var ts *telemetry.Server
	if addr != "" {
		reg = telemetry.NewRegistry()
		ts, err = telemetry.Serve(reg, addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ts.Close()
		if *pprofOn {
			ts.EnablePprof()
		}
		fmt.Printf("telemetry on http://%s/metrics\n", ts.Addr())
	}
	switch *demo {
	case "distributed":
		err = demoDistributed(reg)
	case "serve":
		err = demoServe(reg, ts, logger, serveConfig{
			stalenessPeriods: *stalePeriods,
			failsafeBudget:   power.Watts(*failsafe),
			rpcRetries:       *rpcRetries,
			rpcRetryBackoff:  *rpcBackoff,
			traceBuffer:      *traceBuffer,
			sloRulesFile:     *sloRules,
			fleetDigests:     *fleetDigests,
			fleetHistory:     *fleetHistory,
		})
	default:
		err = fmt.Errorf("unknown demo %q", *demo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// demoDistributed wires two rack workers to a room worker over loopback
// TCP and runs control periods, printing each rack's budget. With
// -telemetry-addr set, reg is non-nil and every layer is instrumented.
func demoDistributed(reg *telemetry.Registry) error {
	opts := []controlplane.Option{controlplane.WithTelemetry(reg)}
	var mu sync.Mutex
	budgets := map[string]power.Watts{}
	sink := func(supplyID string, b power.Watts) {
		mu.Lock()
		budgets[supplyID] = b
		mu.Unlock()
	}
	mkLeaf := func(id, srv string, prio core.Priority, demand power.Watts) *core.Node {
		return core.NewLeaf(id, core.SupplyLeaf{
			SupplyID: id, ServerID: srv, Priority: prio, Share: 1,
			CapMin: 270, CapMax: 490, Demand: demand,
		})
	}
	left, err := controlplane.NewRackWorker("rack-left",
		core.NewShifting("rack-left", 750,
			mkLeaf("SA-ps", "SA", 1, 430), mkLeaf("SB-ps", "SB", 0, 430)),
		core.GlobalPriority, sink, opts...)
	if err != nil {
		return err
	}
	right, err := controlplane.NewRackWorker("rack-right",
		core.NewShifting("rack-right", 750,
			mkLeaf("SC-ps", "SC", 0, 430), mkLeaf("SD-ps", "SD", 0, 430)),
		core.GlobalPriority, sink, opts...)
	if err != nil {
		return err
	}

	leftSrv, err := controlplane.ServeRack(left, "127.0.0.1:0", opts...)
	if err != nil {
		return err
	}
	defer leftSrv.Close()
	rightSrv, err := controlplane.ServeRack(right, "127.0.0.1:0", opts...)
	if err != nil {
		return err
	}
	defer rightSrv.Close()
	fmt.Printf("rack workers listening on %s and %s\n\n", leftSrv.Addr(), rightSrv.Addr())

	leftClient := controlplane.DialRack(leftSrv.Addr(), time.Second, opts...)
	defer leftClient.Close()
	rightClient := controlplane.DialRack(rightSrv.Addr(), time.Second, opts...)
	defer rightClient.Close()

	roomTree := core.NewShifting("contractual", 1400,
		core.NewProxy("rack-left", core.NewSummary()),
		core.NewProxy("rack-right", core.NewSummary()),
	)
	room, err := controlplane.NewRoomWorker(roomTree, 1240, core.GlobalPriority,
		map[string]controlplane.RackClient{
			"rack-left": leftClient, "rack-right": rightClient,
		}, opts...)
	if err != nil {
		return err
	}

	for period := 1; period <= 3; period++ {
		alloc, stats, err := room.RunPeriod(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("control period %d (%v, gather errs %d, apply errs %d):\n",
			period, stats.Elapsed.Round(time.Microsecond), stats.GatherErrors, stats.ApplyErrors)
		fmt.Printf("  rack budgets: left %.0f W, right %.0f W\n",
			float64(alloc.NodeBudgets["rack-left"]), float64(alloc.NodeBudgets["rack-right"]))
		mu.Lock()
		fmt.Printf("  supply budgets: SA %.0f, SB %.0f, SC %.0f, SD %.0f\n",
			float64(budgets["SA-ps"]), float64(budgets["SB-ps"]),
			float64(budgets["SC-ps"]), float64(budgets["SD-ps"]))
		mu.Unlock()
	}
	fmt.Println("\n(high-priority SA receives its full 430 W; low-priority servers sit at Pcap_min)")
	return nil
}

// serveConfig carries the serve demo's degraded-mode knobs: how long the
// room worker trusts stale rack summaries, what it reserves for racks that
// have never reported, and how the transport retries failed RPCs.
type serveConfig struct {
	stalenessPeriods int
	failsafeBudget   power.Watts
	rpcRetries       int
	rpcRetryBackoff  time.Duration
	traceBuffer      int
	sloRulesFile     string
	fleetDigests     bool
	fleetHistory     int
}

// demoServe runs the whole stack continuously until SIGINT/SIGTERM:
// simulated servers with per-server capping controllers, rack workers
// behind real TCP sockets, and a room worker driving 2-second control
// periods. Every layer reports into the telemetry registry, and /healthz
// tracks whether the room worker can still reach its racks.
func demoServe(reg *telemetry.Registry, ts *telemetry.Server, logger *slog.Logger, cfg serveConfig) error {
	opts := []controlplane.Option{
		controlplane.WithTelemetry(reg),
		controlplane.WithLogger(logger),
		controlplane.WithStalenessBound(cfg.stalenessPeriods),
		controlplane.WithFailsafeBudget(cfg.failsafeBudget),
		controlplane.WithRPCRetry(cfg.rpcRetries, cfg.rpcRetryBackoff),
		// Shared by workers and clients: workers roll rack digests into the
		// fleet rollup, clients request them in-band on gather frames.
		controlplane.WithDigests(cfg.fleetDigests),
		controlplane.WithFleetHistory(cfg.fleetHistory),
	}
	// The flight recorder retains each control period's trace + explain
	// records and serves them on the telemetry server's debug endpoints.
	var recorder *flightrec.Recorder
	if cfg.traceBuffer > 0 {
		recorder = flightrec.NewRecorder(cfg.traceBuffer)
		opts = append(opts, controlplane.WithFlightRecorder(recorder))
		if ts != nil {
			h := recorder.Handler()
			ts.Handle("/debug/periods", h)
			ts.Handle("/debug/periods/", h)
			ts.Handle("/debug/trace.json", h)
		}
	}

	// The safety-SLO tracker watches rack staleness through the room worker
	// and folds alert state into /healthz; rules come from -slo-rules or the
	// built-in defaults.
	var rules []slo.Rule
	if cfg.sloRulesFile != "" {
		var err error
		if rules, err = slo.LoadRulesFile(cfg.sloRulesFile); err != nil {
			return err
		}
	}
	tracker, err := slo.New(slo.Config{
		Rules:    rules,
		Registry: reg,
		Recorder: recorder,
		Logger:   logger,
	})
	if err != nil {
		return err
	}
	opts = append(opts, controlplane.WithSLO(tracker))
	if ts != nil {
		ts.Handle("/debug/slo", tracker.Handler())
		ts.AddLeveledCheck("slo", tracker.HealthCheck)
	}

	// Four single-supply servers, two per rack; SA runs a high-priority
	// workload. Each server gets its own PI capping controller, closing the
	// loop the paper's production system closes with real node managers.
	type node struct {
		srv  *server.Server
		ctrl *capping.Controller
	}
	var mu sync.Mutex // controllers are not concurrency-safe
	nodes := map[string]*node{}
	mkNode := func(serverID string, util float64) {
		s, err := server.New(server.Config{
			ID:        serverID,
			Model:     power.DefaultServerModel(),
			Supplies:  []server.Supply{{ID: serverID + "-ps", Split: 1}},
			Telemetry: reg,
		})
		if err != nil {
			panic(err)
		}
		s.SetUtilization(util)
		nodes[serverID+"-ps"] = &node{
			srv:  s,
			ctrl: capping.MustNew(s, capping.Config{Telemetry: reg, ID: serverID}),
		}
	}
	mkNode("SA", 1)
	mkNode("SB", 0.9)
	mkNode("SC", 0.8)
	mkNode("SD", 0.9)

	sink := func(supplyID string, b power.Watts) {
		mu.Lock()
		defer mu.Unlock()
		if n, ok := nodes[supplyID]; ok {
			n.ctrl.SetBudget(supplyID, b)
		}
	}
	mkLeaf := func(id, srv string, prio core.Priority, demand power.Watts) *core.Node {
		return core.NewLeaf(id, core.SupplyLeaf{
			SupplyID: id, ServerID: srv, Priority: prio, Share: 1,
			CapMin: 270, CapMax: 490, Demand: demand,
		})
	}
	left, err := controlplane.NewRackWorker("rack-left",
		core.NewShifting("rack-left", 750,
			mkLeaf("SA-ps", "SA", 1, 430), mkLeaf("SB-ps", "SB", 0, 430)),
		core.GlobalPriority, sink, opts...)
	if err != nil {
		return err
	}
	right, err := controlplane.NewRackWorker("rack-right",
		core.NewShifting("rack-right", 750,
			mkLeaf("SC-ps", "SC", 0, 430), mkLeaf("SD-ps", "SD", 0, 430)),
		core.GlobalPriority, sink, opts...)
	if err != nil {
		return err
	}
	leftSrv, err := controlplane.ServeRack(left, "127.0.0.1:0", opts...)
	if err != nil {
		return err
	}
	defer leftSrv.Close()
	rightSrv, err := controlplane.ServeRack(right, "127.0.0.1:0", opts...)
	if err != nil {
		return err
	}
	defer rightSrv.Close()

	leftClient := controlplane.DialRack(leftSrv.Addr(), time.Second, opts...)
	defer leftClient.Close()
	rightClient := controlplane.DialRack(rightSrv.Addr(), time.Second, opts...)
	defer rightClient.Close()

	roomTree := core.NewShifting("contractual", 1400,
		core.NewProxy("rack-left", core.NewSummary()),
		core.NewProxy("rack-right", core.NewSummary()),
	)
	room, err := controlplane.NewRoomWorker(roomTree, 1240, core.GlobalPriority,
		map[string]controlplane.RackClient{
			"rack-left": leftClient, "rack-right": rightClient,
		}, opts...)
	if err != nil {
		return err
	}
	if ts != nil {
		ts.AddHealthCheck("room", room.Healthy)
		ts.AddWarnCheck("room-degraded", room.Degraded)
		ts.AddHealthDetail("racks", func() any { return room.RackFreshness() })
		if cfg.fleetDigests {
			fh := fleetobs.Handler(room.FleetReport, room.FleetHistory())
			ts.Handle("/debug/fleet", fh)
			ts.Handle("/debug/fleet/", fh)
			ts.AddHealthDetail("fleet", func() any { return room.LastStats().Fleet })
		}
	}

	fmt.Printf("rack workers on %s and %s; control period every 2s; Ctrl-C to stop\n",
		leftSrv.Addr(), rightSrv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
			// Per-second sensing compressed into the demo period: sample
			// sensors and run one PI iteration per server, then the room
			// worker's gather → allocate → push cycle.
			mu.Lock()
			for _, n := range nodes {
				n.ctrl.Sense()
				n.ctrl.Iterate()
			}
			mu.Unlock()
			if _, _, err := room.RunPeriod(context.Background()); err != nil {
				logger.Error("control period failed", "err", err)
			}
		}
	}
}
