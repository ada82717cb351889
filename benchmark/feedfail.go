package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"capmaestro/internal/breaker"
	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/scenario"
	"capmaestro/internal/sim"
	"capmaestro/internal/slo"
)

// ffSize is the feedfail workload's geometry. Every episode is
// episodeSec simulated seconds holding one feed failure and its repair.
type ffSize struct {
	rpps, racksPerRPP, serversPerRack int
	episodeSec                        int
	outageSec                         int
}

var (
	ffFullSize = ffSize{rpps: 4, racksPerRPP: 9, serversPerRack: 30, episodeSec: 600, outageSec: 240}
	ffToySize  = ffSize{rpps: 1, racksPerRPP: 2, serversPerRack: 6, episodeSec: 120, outageSec: 48}
)

const (
	ffControlPeriodSec = 8
	// ffNominalSpeed converts the run's host-time length into a simulated
	// length: the simulator runs the full fleet at roughly this many
	// simulated seconds per host second on the reference box. The
	// simulated length — and so every simulated count — depends only on
	// --seconds, never on how fast the host happens to be.
	ffNominalSpeed = 360
	// Ratings. A rack's 30 servers draw about 11.7 kW together at the
	// scenario's mean utilisation of 0.7; landing on one feed's CDU that
	// is ~1.09× its rating, while the derated limit (80 %, 8.64 kW) still
	// covers the rack's 30 × 270 W cap floor: capping must act, always
	// can, and the slowest (first) window keeps a trip margin of 13–24×
	// over seeds, clear of the asserted 10×.
	ffRackRating = 10800.0
	ffRPPRating  = 9 * ffRackRating
	// ffTimeToSafeMaxSec and ffMinMargin are the paper's promise as the
	// scenario asserts it: every exposure window closes inside the UL 489
	// 30 s window, an order of magnitude before the breaker would trip.
	ffTimeToSafeMaxSec = 30
	ffMinMargin        = 10
)

// ffEpisodes sizes the scenario from the run length.
func ffEpisodes(cfg runConfig, size ffSize) int {
	if cfg.toy {
		return 1
	}
	simulated := cfg.duration.Seconds() * ffNominalSpeed
	return max(1, int(math.Round(simulated/float64(size.episodeSec))))
}

// generateFeedfail builds the scenario file from the seed: mirrored N+N
// topology, three priority levels with uneven X/Y shares per rack, and a
// schedule of alternating X/Y feed failures with utilisation ramps and
// one contractual-budget cut. Each failure and the cut must open exactly
// one exposure window, which the file asserts.
func generateFeedfail(seed int64, size ffSize, episodes int) *scenario.File {
	rng := rand.New(rand.NewSource(seed))
	f := &scenario.File{
		Name:        fmt.Sprintf("feedfail-seed%d", seed),
		Description: "benchmark: alternating feed failures over a mirrored N+N fleet",
	}
	f.Fleet.Policy = "global"
	f.Fleet.SPO = true
	f.Fleet.ControlPeriodSec = ffControlPeriodSec
	f.Fleet.DurationSec = episodes * size.episodeSec

	scale := float64(size.serversPerRack) / 30
	var serverIDs []string
	for r := 0; r < size.rpps; r++ {
		rpp := scenario.RPPSpec{
			XRating: ffRPPRating * scale * float64(size.racksPerRPP) / 9,
			YRating: ffRPPRating * scale * float64(size.racksPerRPP) / 9,
		}
		for c := 0; c < size.racksPerRPP; c++ {
			rpp.Racks = append(rpp.Racks, scenario.RackSpec{XRating: ffRackRating * scale, YRating: ffRackRating * scale})
			// Three groups per rack, one per priority level, each with its
			// own feed split. The utilisations are a shuffle of one set, so
			// every rack starts at the same load and the overload a feed
			// loss causes does not hinge on the seed.
			per := size.serversPerRack / 3
			utils := []float64{0.60, 0.70, 0.80}
			rng.Shuffle(len(utils), func(i, j int) { utils[i], utils[j] = utils[j], utils[i] })
			for prio := 1; prio <= 3; prio++ {
				g := scenario.ServerGroup{
					Prefix:      fmt.Sprintf("p%d-r%d-c%d-s", prio, r, c),
					Count:       per,
					RPP:         r,
					Rack:        c,
					Priority:    prio,
					XShare:      0.4 + 0.05*float64(rng.Intn(5)),
					Utilization: utils[prio-1],
				}
				f.Fleet.Groups = append(f.Fleet.Groups, g)
				for i := 0; i < per; i++ {
					serverIDs = append(serverIDs, fmt.Sprintf("%s-%d", g.Prefix, i))
				}
			}
		}
		f.Fleet.Topology.RPPs = append(f.Fleet.Topology.RPPs, rpp)
	}

	ramp := func(at int) {
		// A seeded tenth of the servers move to a new utilisation.
		for i := 0; i < max(1, len(serverIDs)/10); i++ {
			f.Events = append(f.Events, scenario.Event{
				AtSec: at, Kind: scenario.EventSetUtil,
				Server: serverIDs[rng.Intn(len(serverIDs))],
				Value:  0.55 + 0.05*float64(rng.Intn(7)),
			})
		}
	}
	windows := 0
	cutEpisode := rng.Intn(episodes)
	for e := 0; e < episodes; e++ {
		base := e * size.episodeSec
		feed := scenario.FeedX
		if e%2 == 1 {
			feed = scenario.FeedY
		}
		unit := size.episodeSec / 20
		ramp(base + unit)
		// The failure lands at a seeded phase of the 8 s control period,
		// which is what sets how long the fleet stays exposed.
		failAt := base + 4*unit + rng.Intn(ffControlPeriodSec)
		f.Events = append(f.Events,
			scenario.Event{AtSec: failAt, Kind: scenario.EventFailFeed, Feed: feed},
			scenario.Event{AtSec: failAt + size.outageSec, Kind: scenario.EventRestoreFeed, Feed: feed})
		windows++
		ramp(base + 14*unit)
		if e == cutEpisode {
			// One contractual-budget cut below the feed's measured load,
			// lifted again before the next failure needs the headroom.
			servers := float64(len(serverIDs))
			f.Events = append(f.Events,
				scenario.Event{AtSec: base + 16*unit, Kind: scenario.EventSetBudget, Feed: scenario.FeedX, Value: servers * 165},
				scenario.Event{AtSec: base + 18*unit, Kind: scenario.EventSetBudget, Feed: scenario.FeedX, Value: servers * 600})
			windows++
		}
	}
	sort.SliceStable(f.Events, func(i, j int) bool { return f.Events[i].AtSec < f.Events[j].AtSec })

	f.Assertions = []scenario.Assertion{
		{Kind: scenario.AssertNoTrips},
		{Kind: scenario.AssertNoViolations},
		{Kind: scenario.AssertFeasible},
		{Kind: scenario.AssertBudgetsMatchOracle},
		{Kind: scenario.AssertExposureWindows, Exactly: windows},
		{Kind: scenario.AssertTimeToSafe, MaxSec: ffTimeToSafeMaxSec, MinMargin: ffMinMargin},
	}
	return f
}

// ffRun is one replay of RunFile's public loop — BuildSimInstrumented,
// Run(1 s) + Probe.Sample per simulated second, Evaluate — with the
// benchmark's clock around whichever unit the caller asks for.
type ffRun struct {
	file    *scenario.File
	sc      *scenario.Scenario
	sim     *sim.Simulator
	tracker *slo.Tracker
	probe   *scenario.Probe
	buildMs float64
}

func newFFRun(f *scenario.File) (*ffRun, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sc, err := f.Scenario()
	if err != nil {
		return nil, err
	}
	rec := flightrec.NewRecorder(flightrec.DefaultBufferSize)
	tracker, err := slo.New(slo.Config{Recorder: rec})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := sc.BuildSimInstrumented(scenario.SimInstruments{SLO: tracker, FlightRecorder: rec})
	if err != nil {
		return nil, err
	}
	return &ffRun{
		file: f, sc: sc, sim: s, tracker: tracker, probe: scenario.NewProbe(f),
		buildMs: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// controlPeriods runs the whole scenario one control period (8 simulated
// seconds, the first of them the control tick) per operation, timing
// each operation from outside, and returns the per-operation wall times
// in milliseconds.
func (r *ffRun) controlPeriods() []float64 {
	ops := make([]float64, 0, r.sc.DurationSec/r.sc.ControlPeriodSec+1)
	for t := 0; t < r.sc.DurationSec; {
		start := time.Now()
		for end := min(t+r.sc.ControlPeriodSec, r.sc.DurationSec); t < end; t++ {
			r.sim.Run(time.Second)
			r.probe.Sample(r.sim)
		}
		ops = append(ops, float64(time.Since(start))/float64(time.Millisecond))
	}
	return ops
}

// ffOutcome is everything simulated a run produced: it must not depend
// on the host, so two runs of one file must agree on it exactly.
type ffOutcome struct {
	Windows       []slo.Window
	Violations    int
	Infeasible    int
	Trips         int
	PeakRisk      float64
	FailedDetails []string // the scenario assertions that did not hold
}

func (o ffOutcome) reportOK() bool { return len(o.FailedDetails) == 0 }

func (r *ffRun) outcome() (ffOutcome, float64) {
	start := time.Now()
	rep := scenario.Evaluate(r.file, r.sim, r.tracker, r.probe)
	evalMs := float64(time.Since(start)) / float64(time.Millisecond)
	o := ffOutcome{
		Windows:    r.tracker.ClosedWindows(),
		Violations: len(r.sim.InvariantViolations()),
		Infeasible: r.sim.InfeasiblePeriods(),
		Trips:      len(r.sim.TrippedBreakers()),
		PeakRisk:   r.tracker.PeakRisk(),
	}
	for _, a := range rep.Results {
		if !a.Pass {
			o.FailedDetails = append(o.FailedDetails, a.Kind+": "+a.Error)
		}
	}
	return o, evalMs
}

// ffSetup generates the scenario and warms up by running its first
// control periods through scenario.RunFile itself, which also checks
// that the runner the benchmark replays still accepts the file.
func ffSetup(cfg runConfig) (*scenario.File, error) {
	size := ffFullSize
	if cfg.toy {
		size = ffToySize
	}
	f := generateFeedfail(cfg.seed, size, ffEpisodes(cfg, size))
	warm := *f
	warm.Fleet.DurationSec = 10 * ffControlPeriodSec
	warm.Events = nil
	warm.Assertions = []scenario.Assertion{{Kind: scenario.AssertNoTrips}, {Kind: scenario.AssertNoViolations}}
	res, err := scenario.RunFile(&warm, scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	if !res.Report.OK() {
		return nil, fmt.Errorf("warm-up run failed:\n%s", res.Report.Text())
	}
	return f, nil
}

type ffWorkload struct{}

func (ffWorkload) timed(cfg runConfig) (*result, error) {
	res := newResult()
	var f *scenario.File
	setup, err := medianSetup(cfg.setups, func(bool) error {
		var err error
		f, err = ffSetup(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, cfg.setups)

	run, err := newFFRun(f)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ops := run.controlPeriods()
	out, _ := run.outcome()
	res.attempted = len(ops)
	ffJudge(res, out)
	res.opMetrics(ops)
	return res, nil
}

// ffJudge counts what went wrong in a finished run. A simulated control
// period fails on an invariant violation, an infeasible budget or a
// trip; a failed assertion fails one more.
func ffJudge(res *result, out ffOutcome) {
	for i := 0; i < out.Violations+out.Infeasible+out.Trips; i++ {
		res.fail(nil)
	}
	if !out.reportOK() {
		res.fail(fmt.Errorf("scenario assertions failed: %v", out.FailedDetails))
	}
}

func (ffWorkload) traced(cfg runConfig) (*result, error) {
	res := newResult()
	// 0.4 of the simulated length, run twice: once bare, once with the
	// clock around every tick. Both see the same file, so everything
	// simulated must come out identical.
	short := cfg
	short.duration = cfg.duration * 4 / 10
	f, err := ffSetup(short)
	if err != nil {
		return nil, err
	}

	bare, err := newFFRun(f)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before := takeProcSnapshot()
	bareOps := bare.controlPeriods()
	after := takeProcSnapshot()
	bareOut, _ := bare.outcome()
	res.attempted = len(bareOps)
	ffJudge(res, bareOut)

	run, err := newFFRun(f)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var tickUs, controlUs, sampleUs, tracedOps []float64
	var opStart time.Time
	for t := 0; t < run.sc.DurationSec; t++ {
		control := t%run.sc.ControlPeriodSec == 0
		t0 := time.Now()
		if control {
			opStart = t0
		}
		run.sim.Run(time.Second)
		t1 := time.Now()
		run.probe.Sample(run.sim)
		t2 := time.Now()
		us := float64(t1.Sub(t0)) / 1e3
		if control {
			controlUs = append(controlUs, us)
		} else {
			tickUs = append(tickUs, us)
		}
		sampleUs = append(sampleUs, float64(t2.Sub(t1))/1e3)
		if (t+1)%run.sc.ControlPeriodSec == 0 || t+1 == run.sc.DurationSec {
			tracedOps = append(tracedOps, float64(t2.Sub(opStart))/1e6)
		}
	}
	out, evalMs := run.outcome()
	if !reflect.DeepEqual(out, bareOut) {
		res.fail(fmt.Errorf("two runs of one scenario file disagree on simulated results:\n bare   %+v\n traced %+v", bareOut, out))
	}

	plain := median(tickUs)
	var extra, total float64
	for _, us := range controlUs {
		extra += us - plain
		total += us
	}
	for _, us := range tickUs {
		total += us
	}
	res.set("sim.tick_us_p50", plain, len(tickUs))
	res.set("sim.control_tick_us_p50", median(controlUs), len(controlUs))
	res.set("sim.control_share", extra/total, len(controlUs))
	res.set("sim.ticks", float64(len(tickUs)+len(controlUs)), 1)
	res.set("sim.control_periods", float64(len(controlUs)), 1)
	res.set("sim.infeasible_periods", float64(out.Infeasible), 1)
	res.set("sim.invariant_violations", float64(out.Violations), 1)
	var bareTotal float64
	for _, ms := range bareOps {
		bareTotal += ms
	}
	res.set("sim.speed_x", float64(bare.sc.DurationSec)/(bareTotal/1e3), len(bareOps))
	res.set("scenario.build_ms", run.buildMs, 1)
	res.set("scenario.probe_sample_us_p50", median(sampleUs), len(sampleUs))
	res.set("scenario.evaluate_ms", evalMs, 1)
	res.set("breaker.trips", float64(out.Trips), 1)
	res.set("slo.windows_closed", float64(len(out.Windows)), 1)
	res.set("slo.peak_risk", out.PeakRisk, 1)
	if len(out.Windows) > 0 {
		tts := make([]float64, len(out.Windows))
		margin := math.Inf(1)
		for i, w := range out.Windows {
			tts[i] = w.DurationSec
			margin = math.Min(margin, w.Margin())
		}
		sorted := sortedCopy(tts)
		res.set("slo.time_to_safe_p50_s", quantile(sorted, 0.5), len(tts))
		res.set("slo.time_to_safe_max_s", sorted[len(sorted)-1], len(tts))
		res.set("slo.trip_margin_min_x", margin, len(tts))
	}
	res.set("trace.overhead_ratio", median(tracedOps)/median(bareOps), len(tracedOps))
	var proc procDelta
	proc.add(before, after, len(bareOps))
	proc.report(res)

	// Direct-call probes of the per-server layers, on the finished
	// simulator's own objects.
	ids := run.sim.ServerIDs()
	srv, ctl := run.sim.Server(ids[0]), run.sim.Controller(ids[0])
	slice := cfg.duration / 40
	ns := timeCalls(slice, cfg.probeCalls, 100, nil, func() { srv.Step(time.Second) })
	res.set("server.step_ns", median(ns), len(ns))
	ns = timeCalls(slice, cfg.probeCalls, 100, nil, func() { ctl.Sense(); ctl.Iterate() })
	res.set("capping.sense_iterate_ns", median(ns), len(ns))
	brk, err := breaker.New(power.Watts(ffRackRating), breaker.Config{})
	if err != nil {
		return nil, err
	}
	ns = timeCalls(slice, cfg.probeCalls, 100, nil, func() { brk.Apply(power.Watts(ffRackRating*0.9), time.Second) })
	res.set("breaker.step_ns", median(ns), len(ns))
	trees, budgets, _ := run.sim.LastControlTrees()
	var spoErr error
	ns = timeCalls(cfg.duration/10, cfg.probeCalls, 1, nil, func() {
		if _, _, err := core.AllocateWithSPO(trees, budgets, run.sim.Policy()); err != nil {
			spoErr = err
		}
	})
	if spoErr != nil {
		return nil, fmt.Errorf("core.AllocateWithSPO probe: %w", spoErr)
	}
	res.set("core.spo_allocate_ms", median(ns)/1e6, len(ns))
	return res, nil
}
