// Command scalesim measures control-plane scalability: it stands up
// thousands of simulated rack workers over real TCP on localhost, drives
// a sharded room/aggregator hierarchy over them, and records control-
// period latency percentiles, goroutine counts, and wire bytes.
//
// Run one ad-hoc configuration with flags:
//
//	scalesim -racks 250 -servers-per-rack 40 -levels 3 -codec binary -batch
//
// or a declarative sweep file (see cmd/scalesim/sweeps/):
//
//	scalesim -sweep cmd/scalesim/sweeps/paper-scale.json -out BENCH_controlplane.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"capmaestro/internal/scale"
)

func main() {
	var (
		sweepPath = flag.String("sweep", "", "sweep file (JSON) declaring a list of runs; overrides the single-run flags")
		outPath   = flag.String("out", "BENCH_controlplane.json", "output path for the results file")

		racks    = flag.Int("racks", 25, "simulated racks")
		spr      = flag.Int("servers-per-rack", 40, "servers per rack")
		levels   = flag.Int("levels", 2, "worker tiers including racks and room (2 = flat, 3 = one aggregator tier)")
		fanOut   = flag.Int("fan-out", 50, "aggregator fan-out and racks per TCP endpoint")
		codec    = flag.String("codec", "binary", "wire codec: binary (delta responses off) or binary-delta (1 W delta deadband)")
		batch    = flag.Bool("batch", true, "multiplex each endpoint's racks into batch frames")
		periods  = flag.Int("periods", 20, "measured control periods")
		warmup   = flag.Int("warmup", 3, "unmeasured warmup periods")
		rpcConc  = flag.Int("rpc-concurrency", 0, "max in-flight rack RPCs per worker (0 = GOMAXPROCS-scaled default)")
		rpcLatMs = flag.Float64("rpc-latency-ms", 0, "emulated one-way per-frame network latency (0 = pure loopback)")
		seed     = flag.Uint64("seed", 0, "demand-mix seed (0 = fixed default)")
		digests  = flag.Bool("digests", false, "request fleet stat digests in-band and measure their wire overhead")

		maxDigestShare = flag.Float64("max-digest-share", 0,
			"fail if any digest-enabled run's digest bytes exceed this share of inbound client bytes (0 = no budget)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var specs []scale.Spec
	sweepName := "ad-hoc"
	if *sweepPath != "" {
		sw, err := scale.LoadSweep(*sweepPath)
		if err != nil {
			fatal(err)
		}
		specs = sw.Runs
		sweepName = sw.Name
	} else {
		specs = []scale.Spec{{
			Name:           "ad-hoc",
			Racks:          *racks,
			ServersPerRack: *spr,
			Levels:         *levels,
			FanOut:         *fanOut,
			Codec:          *codec,
			Batch:          *batch,
			Periods:        *periods,
			Warmup:         *warmup,
			RPCConcurrency: *rpcConc,
			RPCLatencyMs:   *rpcLatMs,
			Digests:        *digests,
			Seed:           *seed,
		}}
	}

	fmt.Printf("scalesim: sweep %q, %d run(s) on %s\n", sweepName, len(specs), scale.MachineString())
	results := make([]scale.Result, 0, len(specs))
	for i, spec := range specs {
		fmt.Printf("[%d/%d] %s: %d racks × %d servers, %d levels, fan-out %d, codec %s, batch=%v\n",
			i+1, len(specs), spec.Name, spec.Racks, spec.ServersPerRack,
			spec.Levels, spec.FanOut, spec.Codec, spec.Batch)
		res, err := scale.Run(ctx, spec, func(format string, args ...any) {
			fmt.Printf("    "+format+"\n", args...)
		})
		if err != nil {
			fatal(err)
		}
		if spec.Digests && *maxDigestShare > 0 && res.DigestShareOfBytesIn > *maxDigestShare {
			fatal(fmt.Errorf("%s: digest wire share %.2f%% of inbound bytes exceeds budget %.2f%%",
				spec.Name, 100*res.DigestShareOfBytesIn, 100**maxDigestShare))
		}
		results = append(results, *res)
		// Fleets are large; make sure one run's servers are fully gone
		// before the next builds.
		runtime.GC()
	}

	if err := scale.WriteBench(*outPath, results); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n%s\n", *outPath, scale.Summarize(results))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scalesim:", err)
	os.Exit(1)
}
