// Command scenariorun executes declarative scenario files — a fleet, a
// timed event schedule, and assertions the run must satisfy — and fuzzes
// the allocator with seeded generated scenarios.
//
//	scenariorun run scenarios/feed-failure-peak.yaml [more files...]
//	scenariorun validate scenarios/*.yaml
//	scenariorun interactive -listen :8080 scenarios/quiet-night.yaml
//	scenariorun sweep -count 1000 -seed 1 -out failures/
//	scenariorun replay failures/gen-178.json
//	scenariorun emit -seed 42 corpus/gen-42.json
//
// run executes each scenario and evaluates its assertions, exiting
// non-zero if any fails; with CAPMAESTRO_ARTIFACT_DIR set, a failing
// run's scenario, report, and flight-recorder Chrome trace are written
// there for offline inspection. validate checks files without running
// them and prints a one-line report per file. interactive runs the
// scenario's fleet in real time, serving the full observability plane
// (/metrics, /debug/periods, /debug/slo, /debug/fleet) plus an operator
// command surface (POST /op and stdin) against the live simulation.
//
// sweep generates and verifies seeded scenarios (scenario i uses seed+i),
// minimizes each failure to its smallest still-failing form, and writes
// it as replayable JSON under -out. replay verifies one such file; emit
// writes the generated scenario for a seed without verifying it. A file
// written by one invocation replays bit-identically in another (or in
// TestCorpusReplay once committed to testdata/corpus).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"capmaestro/internal/console"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/scenario"
	"capmaestro/internal/slo"
	"capmaestro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	verb, args := os.Args[1], os.Args[2:]
	switch verb {
	case "run":
		os.Exit(runCmd(args))
	case "validate":
		os.Exit(validateCmd(args))
	case "interactive":
		os.Exit(interactiveCmd(args))
	case "sweep":
		os.Exit(sweepCmd(args))
	case "replay":
		os.Exit(replayCmd(args))
	case "emit":
		os.Exit(emitCmd(args))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "scenariorun: unknown verb %q\n", verb)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  scenariorun run [-json] <file.yaml|file.json> [...]
                                                    run scenarios, evaluate assertions
  scenariorun validate <file.yaml|file.json> [...]  check files without running
  scenariorun interactive [-listen addr] [-rate n] <file>
                                                    operator console on a live fleet
  scenariorun sweep [-count n] [-seed n] [-out dir]  verify generated scenarios,
                                                    write minimized failures
  scenariorun replay <file.json>                    verify one generated scenario
  scenariorun emit [-seed n] <file.json>            write the scenario for a seed
`)
}

func runCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the run report as JSON")
	_ = fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "scenariorun run: no scenario files given")
		return 2
	}
	exit := 0
	for _, path := range files {
		f, err := scenario.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		res, err := scenario.RunFile(f, scenario.RunOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 2
		}
		if *jsonOut {
			data, _ := json.MarshalIndent(res.Report, "", "  ")
			fmt.Println(string(data))
		} else {
			fmt.Print(res.Report.Text())
		}
		if !res.Report.OK() {
			exit = 1
			dumpArtifacts(path, f, res)
		}
	}
	return exit
}

// dumpArtifacts writes a failing run's scenario, report, and flight
// trace into CAPMAESTRO_ARTIFACT_DIR (when set) so CI uploads them.
func dumpArtifacts(path string, f *scenario.File, res *scenario.RunResult) {
	dir := os.Getenv("CAPMAESTRO_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "scenariorun: artifact dir: %v\n", err)
		return
	}
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	write := func(name string, data []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scenariorun: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "scenariorun: wrote %s\n", p)
	}
	if sc, err := f.Scenario(); err == nil {
		if data, err := sc.MarshalStable(); err == nil {
			write(base+"-scenario.json", append(data, '\n'))
		}
	}
	if data, err := json.MarshalIndent(res.Report, "", "  "); err == nil {
		write(base+"-report.json", append(data, '\n'))
	}
	var trace strings.Builder
	if err := res.Recorder.WriteChromeTrace(&trace); err == nil {
		write(base+"-trace.json", []byte(trace.String()))
	}
}

func validateCmd(args []string) int {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	_ = fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "scenariorun validate: no scenario files given")
		return 2
	}
	report, ok := scenario.ValidateFiles(files)
	fmt.Print(report)
	if !ok {
		return 1
	}
	return 0
}

func interactiveCmd(args []string) int {
	fs := flag.NewFlagSet("interactive", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "telemetry + operator HTTP listen address")
	rate := fs.Int("rate", 1, "simulated seconds per wall second (0 freezes time; use step)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "scenariorun interactive: exactly one scenario file")
		return 2
	}
	f, err := scenario.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := f.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sc, err := f.Scenario()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	reg := telemetry.NewRegistry()
	rec := flightrec.NewRecorder(flightrec.DefaultBufferSize)
	tracker, err := slo.New(slo.Config{Recorder: rec, Registry: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	s, err := sc.BuildSimInstrumented(scenario.SimInstruments{
		SLO:            tracker,
		FlightRecorder: rec,
		Telemetry:      reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	sess := console.New(s, tracker, rec)
	ts, err := telemetry.Serve(reg, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer ts.Close()
	sess.Mount(ts)
	fmt.Printf("scenario %s: %d servers, operator surface on http://%s\n",
		f.Name, len(sc.Servers), ts.Addr())

	var clock <-chan struct{}
	if *rate > 0 {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		ch := make(chan struct{})
		go func() {
			for range tick.C {
				ch <- struct{}{}
			}
		}()
		clock = ch
	}
	if err := sess.Run(os.Stdin, os.Stdout, *rate, clock); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}

func sweepCmd(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	count := fs.Int("count", 100, "scenarios to generate and verify")
	seed := fs.Int64("seed", 1, "base seed; scenario i uses seed+i")
	outDir := fs.String("out", "failures", "directory for minimized failing scenario JSONs")
	_ = fs.Parse(args)
	failures := 0
	for i := 0; i < *count; i++ {
		s := *seed + int64(i)
		sc := scenario.Generate(s)
		err := scenario.Verify(sc)
		if err == nil {
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "FAIL seed %d: %v\n", s, err)
		sc = scenario.Minimize(sc, func(c *scenario.Scenario) bool {
			return scenario.Verify(c) != nil
		})
		if merr := scenario.Verify(sc); merr != nil {
			fmt.Fprintf(os.Stderr, "  minimized to %d servers, %d events, %ds: %v\n",
				len(sc.Servers), len(sc.Events), sc.DurationSec, merr)
		}
		if werr := writeScenario(filepath.Join(*outDir, sc.Name+".json"), sc); werr != nil {
			fmt.Fprintln(os.Stderr, " ", werr)
		}
	}
	fmt.Printf("%d/%d scenarios passed\n", *count-failures, *count)
	if failures > 0 {
		return 1
	}
	return 0
}

func replayCmd(args []string) int {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "scenariorun replay: exactly one scenario JSON file")
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sc, err := scenario.Load(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := scenario.Verify(sc); err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", sc.Name, err)
		return 1
	}
	fmt.Printf("ok %s (seed %d, %d servers, %d events, %ds)\n",
		sc.Name, sc.Seed, len(sc.Servers), len(sc.Events), sc.DurationSec)
	return 0
}

func emitCmd(args []string) int {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "generator seed")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "scenariorun emit: exactly one output file")
		return 2
	}
	if err := writeScenario(fs.Arg(0), scenario.Generate(*seed)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}

// writeScenario writes sc as stable JSON to path, creating its directory.
func writeScenario(path string, sc *scenario.Scenario) error {
	data, err := sc.MarshalStable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (seed %d)\n", path, sc.Seed)
	return nil
}
