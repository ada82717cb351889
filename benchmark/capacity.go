package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/dc"
)

// The Fig. 9 grid: servers per rack × scenario × policy.
var (
	mcPerRackFull = []int{6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45}
	mcPerRackToy  = []int{6}
	mcScenarios   = []dc.Scenario{dc.Typical, dc.WorstCase}
	mcPolicies    = []core.Policy{core.NoPriority, core.LocalPriority, core.GlobalPriority}
)

// Global Priority capacities the paper reports for the Table 4 data
// center: 39 servers per rack typical (6 318 servers), 36 worst case
// (5 832).
const (
	mcWantTypicalPerRack = 39
	mcWantWorstPerRack   = 36
)

// gridPoint is one cell of the sweep and what MeanCapRatios returned.
type gridPoint struct {
	PerRack  int     `json:"servers_per_rack"`
	Scenario string  `json:"scenario"`
	Policy   string  `json:"policy"`
	All      float64 `json:"cap_ratio_all"`
	High     float64 `json:"cap_ratio_high"`
}

// mcOptions pins the study's run counts (dc's defaults today) so that the
// workload stays the same size whatever the defaults become.
func mcOptions(cfg runConfig) dc.StudyOptions {
	o := dc.StudyOptions{Seed: cfg.seed, Workers: runtime.GOMAXPROCS(0), TypicalRuns: 200, WorstCaseRuns: 60}
	if cfg.toy {
		o.TypicalRuns, o.WorstCaseRuns = 8, 4
	}
	return o
}

// mcRunsPerPoint is how many Monte Carlo runs one grid point of each
// scenario performs.
func mcRunsPerPoint(o dc.StudyOptions, s dc.Scenario) int {
	if s == dc.Typical {
		return o.EffectiveTypicalRuns()
	}
	return o.WorstCaseRuns
}

func mcPerRack(cfg runConfig) []int {
	if cfg.toy {
		return mcPerRackToy
	}
	return mcPerRackFull
}

// mcSweep runs every grid point once, one operation each, and returns
// the ratios, per-point wall times in milliseconds, and the Monte Carlo
// runs performed.
func mcSweep(cfg runConfig, res *result) (points []gridPoint, ms []float64, runs int) {
	opts := mcOptions(cfg)
	for _, sc := range mcScenarios {
		for _, pol := range mcPolicies {
			for _, n := range mcPerRack(cfg) {
				c := dc.DefaultConfig()
				c.ServersPerRack = n
				start := time.Now()
				all, high, err := dc.MeanCapRatios(c, sc, pol, opts)
				d := time.Since(start)
				res.attempted++
				if err != nil {
					res.fail(fmt.Errorf("grid point %d/%s/%s: %w", n, sc, pol, err))
					continue
				}
				points = append(points, gridPoint{n, sc.String(), pol.String(), all, high})
				ms = append(ms, float64(d)/float64(time.Millisecond))
				runs += mcRunsPerPoint(opts, sc)
			}
		}
	}
	return points, ms, runs
}

// capacityOf is dc.FindCapacity's rule applied to a finished sweep: the
// largest servers-per-rack whose criterion ratio (all servers in the
// typical case, high-priority servers in the worst case) stays under the
// 1 % threshold, stopping at the first failure after a pass.
func capacityOf(points []gridPoint, sc dc.Scenario, pol core.Policy) int {
	best, found := 0, false
	for _, p := range points {
		if p.Scenario != sc.String() || p.Policy != pol.String() {
			continue
		}
		criterion := p.All
		if sc == dc.WorstCase {
			criterion = p.High
		}
		if criterion < dc.CapRatioThreshold {
			best, found = p.PerRack, true
		} else if found {
			break
		}
	}
	return best
}

// mcCheck is the output oracle: the paper's Global Priority capacities,
// every repeat of the sweep identical to the first, and — for seeds
// expected.json records — the recorded ratios.
func mcCheck(cfg runConfig, res *result, first []gridPoint, repeats [][]gridPoint) {
	for i, rep := range repeats {
		if !sameRatios(first, rep, 0) {
			res.fail(fmt.Errorf("sweep %d gave different cap ratios than sweep 0 for the same seed", i+1))
			break
		}
	}
	if cfg.toy {
		return
	}
	if got := capacityOf(first, dc.Typical, core.GlobalPriority); got != mcWantTypicalPerRack {
		res.fail(fmt.Errorf("Global Priority typical capacity %d servers/rack, paper %d", got, mcWantTypicalPerRack))
	}
	if got := capacityOf(first, dc.WorstCase, core.GlobalPriority); got != mcWantWorstPerRack {
		res.fail(fmt.Errorf("Global Priority worst-case capacity %d servers/rack, paper %d", got, mcWantWorstPerRack))
	}
	expected, err := loadExpected(cfg.expectedPath)
	if err != nil {
		res.fail(err)
		return
	}
	if want, ok := expected[strconv.FormatInt(cfg.seed, 10)]; ok && !sameRatios(want, first, 1e-9) {
		res.fail(fmt.Errorf("cap ratios for seed %d differ from %s", cfg.seed, cfg.expectedPath))
	}
}

func sameRatios(a, b []gridPoint, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	near := func(x, y float64) bool { return x == y || math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y)) }
	for i := range a {
		if a[i].PerRack != b[i].PerRack || a[i].Scenario != b[i].Scenario || a[i].Policy != b[i].Policy ||
			!near(a[i].All, b[i].All) || !near(a[i].High, b[i].High) {
			return false
		}
	}
	return true
}

func loadExpected(path string) (map[string][]gridPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string][]gridPoint
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// updateExpected records the sweep's ratios for the given seeds.
func updateExpected(cfg runConfig, seeds []int64) error {
	m := make(map[string][]gridPoint, len(seeds))
	for _, seed := range seeds {
		c := cfg
		c.seed = seed
		res := newResult()
		points, _, _ := mcSweep(c, res)
		if res.failed > 0 {
			return fmt.Errorf("seed %d: %v", seed, res.problems)
		}
		m[strconv.FormatInt(seed, 10)] = points
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.expectedPath, append(data, '\n'), 0o644)
}

type mcWorkload struct{}

func (mcWorkload) timed(cfg runConfig) (*result, error) {
	res := newResult()
	// Set-up is what a planner pays before the first useful sweep: every
	// data-center size built once in both scenarios and run a few times.
	setup, err := medianSetup(cfg.setups, func(bool) error { return mcWarm(cfg) })
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, cfg.setups)

	runtime.GC()
	var first []gridPoint
	var repeats [][]gridPoint
	var ms []float64
	// Whole sweeps only: a partial sweep would change the mix of cheap
	// and dear grid points the percentiles are taken over.
	for start := time.Now(); first == nil || time.Since(start) < cfg.duration; {
		points, sweepMs, _ := mcSweep(cfg, res)
		ms = append(ms, sweepMs...)
		if first == nil {
			first = points
		} else {
			repeats = append(repeats, points)
		}
	}
	mcCheck(cfg, res, first, repeats)
	res.opMetrics(ms)
	return res, nil
}

// mcWarm builds each data-center size once and runs a few simulations
// on it.
func mcWarm(cfg runConfig) error {
	for _, n := range mcPerRack(cfg) {
		c := dc.DefaultConfig()
		c.ServersPerRack = n
		for _, sc := range mcScenarios {
			d, err := dc.Build(c, sc)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(cfg.seed))
			for i := 0; i < 4; i++ {
				if _, err := d.Run(rng, core.GlobalPriority, 0.5); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (mcWorkload) traced(cfg runConfig) (*result, error) {
	res := newResult()
	// One sweep with the clock around each grid point gives the headline
	// rate; the rest is direct calls into dc and core.
	before := takeProcSnapshot()
	first, ms, runs := mcSweep(cfg, res)
	after := takeProcSnapshot()
	mcCheck(cfg, res, first, nil)
	var total float64
	for _, v := range ms {
		total += v
	}
	if total > 0 {
		res.set("dc.mc_runs_per_s", float64(runs)/(total/1e3), len(ms))
	}
	var proc procDelta
	proc.add(before, after, len(ms))
	proc.report(res)

	c := dc.DefaultConfig() // Table 4, 24 servers per rack
	if cfg.toy {
		c.ServersPerRack = mcPerRackToy[0]
	}
	slice := cfg.duration / 10
	for _, sc := range mcScenarios {
		start := time.Now()
		d, err := dc.Build(c, sc)
		if err != nil {
			return nil, err
		}
		buildMs := float64(time.Since(start)) / float64(time.Millisecond)
		rng := rand.New(rand.NewSource(cfg.seed))
		var runErr error
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ns := timeCalls(slice, cfg.probeCalls, 1, nil, func() {
			if _, err := d.Run(rng, core.GlobalPriority, 0.5); err != nil {
				runErr = err
			}
		})
		runtime.ReadMemStats(&m1)
		if runErr != nil {
			return nil, fmt.Errorf("dc.Run probe: %w", runErr)
		}
		if sc == dc.Typical {
			res.set("dc.build_ms", buildMs, 1)
			res.set("dc.run_us_p50.typical", median(ns)/1e3, len(ns))
			res.set("dc.mallocs_per_run", float64(m1.Mallocs-m0.Mallocs)/float64(len(ns)), len(ns))
			root := d.Phases()[0]
			a, err := core.NewAllocator(root)
			if err != nil {
				return nil, err
			}
			leaves := float64(len(root.Leaves()))
			ns = timeCalls(slice, cfg.probeCalls, 1, nil, func() { a.Run(0, core.GlobalPriority) })
			res.set("core.allocator_run_ns_per_leaf", median(ns)/leaves, len(ns))
		} else {
			res.set("dc.run_us_p50.worst", median(ns)/1e3, len(ns))
		}
	}

	// Parallel efficiency: the same typical grid point with one worker
	// and with GOMAXPROCS workers.
	procs := runtime.GOMAXPROCS(0)
	rate := func(workers int) (float64, error) {
		o := mcOptions(cfg)
		o.Workers = workers
		start := time.Now()
		_, _, err := dc.MeanCapRatios(c, dc.Typical, core.GlobalPriority, o)
		return float64(o.EffectiveTypicalRuns()) / time.Since(start).Seconds(), err
	}
	var one, all []float64
	for i := 0; i < 5; i++ {
		r1, err := rate(1)
		if err != nil {
			return nil, err
		}
		rp, err := rate(procs)
		if err != nil {
			return nil, err
		}
		one, all = append(one, r1), append(all, rp)
	}
	res.set("dc.parallel_efficiency", median(all)/(float64(procs)*median(one)), len(all))
	return res, nil
}
