package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"capmaestro/internal/controlplane"
	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// Server envelope of the control-plane workloads: the 270/490 W envelope
// the repo's allocation benchmarks use, demand in [300, 480) W.
const (
	cpCapMin     = power.Watts(270)
	cpCapMax     = power.Watts(490)
	cpDemandLo   = 300
	cpDemandSpan = 180
	// cpChurnShare of every endpoint group's real racks redraw their
	// demand between periods: 5 of 50.
	cpChurnShare = 0.10
	// cpVariants summaries per stub rack; a stub flips to the next one
	// every period.
	cpVariants = 4
	cpPolicy   = core.GlobalPriority
	cpLevels   = 3
)

// cpSize is a control-plane workload's geometry. Racks are grouped
// fanOut per TCP endpoint, aligned with the level-1 aggregator chunking,
// so one batch frame serves one aggregator's children.
type cpSize struct {
	racks, servers, fanOut, warmup int
}

var (
	cpFullSize = cpSize{racks: 2500, servers: 40, fanOut: 50, warmup: 10}
	cpToySize  = cpSize{racks: 30, servers: 8, fanOut: 10, warmup: 2}
)

// mix64 is a splitmix64 finaliser: every generated input of the
// control-plane workloads is a pure function of the seed and a few
// indices, so the same seed gives the same inputs whatever the timing.
func mix64(seed uint64, a, b, c int) uint64 {
	z := seed + (uint64(a)*1_000_003+uint64(b))*0x9E3779B97F4A7C15 + uint64(c)*0xD1B54A32D192ED03 + 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// demandOf is server srv's demand on rack's gen-th redraw.
func demandOf(seed uint64, rack, srv, gen int) power.Watts {
	return power.Watts(cpDemandLo + mix64(seed, rack, srv, gen)%cpDemandSpan)
}

// churnPicks returns which k of a group's n racks redraw before the
// given period: a seeded partial shuffle, so exactly k distinct racks.
func churnPicks(seed uint64, group, period, n, k int, scratch []int) []int {
	scratch = scratch[:0]
	for i := 0; i < n; i++ {
		scratch = append(scratch, i)
	}
	for i := 0; i < k; i++ {
		j := i + int(mix64(seed^0xC0FFEE, group, period, i)%uint64(n-i))
		scratch[i], scratch[j] = scratch[j], scratch[i]
	}
	return scratch[:k]
}

func cpRackID(r int) string { return fmt.Sprintf("rack%05d", r) }

// newRackTree builds one rack's subtree: servers supply leaves under an
// unconstrained shifting node, every third server priority 1.
func newRackTree(seed uint64, size cpSize, r, gen int) *core.Node {
	id := cpRackID(r)
	leaves := make([]*core.Node, size.servers)
	for i := range leaves {
		prio := core.Priority(3)
		if i%3 == 0 {
			prio = 1
		}
		sid := fmt.Sprintf("%s/srv%03d", id, i)
		leaves[i] = core.NewLeaf(sid, core.SupplyLeaf{
			SupplyID: sid, ServerID: sid,
			Priority: prio, Share: 1,
			CapMin: cpCapMin, CapMax: cpCapMax, Demand: demandOf(seed, r, i, gen),
		})
	}
	return core.NewShifting(id, 0, leaves...)
}

func redraw(tree *core.Node, seed uint64, r, gen int) {
	for i, leaf := range tree.Children {
		leaf.Leaf.Demand = demandOf(seed, r, i, gen)
	}
}

// realRack is one fleet-100k rack: the worker under test and the two
// trees the benchmark alternates between. A redraw writes the idle tree
// and swaps it in with SetTree, whose lock orders the write after every
// read the server made of that tree while it was active.
type realRack struct {
	worker *controlplane.RackWorker
	trees  [2]*core.Node
	active int
	gen    int
}

// stubRack is one tiers-100k rack: no rack-side compute at all. It
// answers gathers from summaries (and digests) a real RackWorker
// produced at set-up and stores the budget it is pushed.
type stubRack struct {
	idx   int
	epoch *atomic.Int64
	sums  [cpVariants]core.Summary
	digs  [cpVariants]*fleetobs.StatDigest

	mu     sync.Mutex
	budget power.Watts
}

func (s *stubRack) variant() int { return int((s.epoch.Load() + int64(s.idx)) % cpVariants) }

func (s *stubRack) Gather(context.Context) (core.Summary, error) { return s.sums[s.variant()], nil }

func (s *stubRack) GatherDigest(context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	v := s.variant()
	return s.sums[v], s.digs[v], nil
}

func (s *stubRack) ApplyBudget(_ context.Context, b power.Watts) error {
	s.mu.Lock()
	s.budget = b
	s.mu.Unlock()
	return nil
}

func (s *stubRack) lastBudget() power.Watts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// cpFleet is the standing rack side of a control-plane workload: the
// racks, grouped fanOut per ServeRacks endpoint on localhost TCP.
type cpFleet struct {
	seed  uint64
	size  cpSize
	real  []*realRack // fleet-100k
	stubs []*stubRack // tiers-100k
	epoch atomic.Int64

	servers []*controlplane.RackServer
	budget  power.Watts
	step    int // churn steps applied so far
	picks   []int
}

func (f *cpFleet) stubbed() bool { return f.stubs != nil }

func (f *cpFleet) groups() int { return (f.size.racks + f.size.fanOut - 1) / f.size.fanOut }

// newCPFleet builds the racks and serves them. With rec set, every rack
// is wrapped in the tracing decorator before it is handed to ServeRacks.
func newCPFleet(seed uint64, size cpSize, stub bool, rec *spanRecorder) (*cpFleet, error) {
	f := &cpFleet{seed: seed, size: size}
	ctx := context.Background()
	hosted := make([]rackServerSide, size.racks)
	var demand power.Watts
	for r := 0; r < size.racks; r++ {
		tree := newRackTree(seed, size, r, 0)
		w, err := controlplane.NewRackWorker(cpRackID(r), tree, cpPolicy, nil)
		if err != nil {
			return nil, err
		}
		if !stub {
			f.real = append(f.real, &realRack{worker: w, trees: [2]*core.Node{tree, newRackTree(seed, size, r, 0)}})
			hosted[r] = w
			s, err := core.Summarize(tree, cpPolicy)
			if err != nil {
				return nil, err
			}
			demand += s.TotalDemand()
			continue
		}
		st := &stubRack{idx: r, epoch: &f.epoch}
		for v := 0; v < cpVariants; v++ {
			redraw(tree, seed, r, v)
			s, d, err := w.GatherDigest(ctx)
			if err != nil {
				return nil, err
			}
			st.sums[v], st.digs[v] = s, d.Clone()
		}
		f.stubs = append(f.stubs, st)
		hosted[r] = st
		demand += st.sums[st.variant()].TotalDemand()
	}
	// 85 % of aggregate demand: every period does real capping work
	// instead of rubber-stamping demand.
	f.budget = demand * 85 / 100

	for g := 0; g < f.groups(); g++ {
		lo, hi := g*size.fanOut, min((g+1)*size.fanOut, size.racks)
		workers := make(map[string]controlplane.RackClient, hi-lo)
		for r := lo; r < hi; r++ {
			var w controlplane.RackClient = hosted[r]
			if rec != nil {
				w = &tracedRack{inner: hosted[r], rec: rec, group: g, rack: int32(r)}
			}
			workers[cpRackID(r)] = w
		}
		// The default delta deadband (0) squashes a gather only when the
		// summary is exactly what the connection last sent, so the room's
		// view stays exact and the budget oracle can demand exact watts.
		srv, err := controlplane.ServeRacks(workers, "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
	}
	return f, nil
}

func (f *cpFleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// churnGroup applies one between-period input change to one endpoint
// group: a seeded tenth of its real racks redraw every server's demand.
func (f *cpFleet) churnGroup(g, step int) error {
	lo, hi := g*f.size.fanOut, min((g+1)*f.size.fanOut, f.size.racks)
	k := int(math.Round(cpChurnShare * float64(hi-lo)))
	f.picks = churnPicks(f.seed, g, step, hi-lo, k, f.picks)
	for _, p := range f.picks {
		rk := f.real[lo+p]
		rk.gen++
		idle := 1 - rk.active
		redraw(rk.trees[idle], f.seed, lo+p, rk.gen)
		if err := rk.worker.SetTree(rk.trees[idle]); err != nil {
			return err
		}
		rk.active = idle
	}
	return nil
}

// churn changes the inputs between two periods, outside the timed
// interval: real racks redraw (10 % churn, so ~90 % of gathers squash to
// delta frames), stub racks all flip to their next variant (100 % churn).
func (f *cpFleet) churn() error {
	f.step++
	if f.stubbed() {
		f.epoch.Add(1)
		return nil
	}
	for g := 0; g < f.groups(); g++ {
		if err := f.churnGroup(g, f.step); err != nil {
			return err
		}
	}
	return nil
}

// summaryOf is rack r's true current summary, computed by the benchmark.
func (f *cpFleet) summaryOf(r int) (core.Summary, error) {
	if f.stubbed() {
		return f.stubs[r].sums[f.stubs[r].variant()], nil
	}
	rk := f.real[r]
	return core.Summarize(rk.trees[rk.active], cpPolicy)
}

func (f *cpFleet) lastBudget(r int) power.Watts {
	if f.stubbed() {
		return f.stubs[r].lastBudget()
	}
	return f.real[r].worker.LastBudget()
}

// checkBudgets is the output oracle: every rack's received budget must
// equal a monolithic core.Allocate over the identically nested proxy
// tree, and the budgets must sum to no more than the room's.
func (f *cpFleet) checkBudgets() error {
	nodes := make([]*core.Node, f.size.racks)
	for r := range nodes {
		s, err := f.summaryOf(r)
		if err != nil {
			return err
		}
		nodes[r] = core.NewProxy(cpRackID(r), s)
	}
	var aggs []*core.Node
	for g := 0; g*f.size.fanOut < len(nodes); g++ {
		chunk := nodes[g*f.size.fanOut : min((g+1)*f.size.fanOut, len(nodes))]
		aggs = append(aggs, core.NewShifting(fmt.Sprintf("agg%03d", g), 0, chunk...))
	}
	want, err := core.Allocate(core.NewShifting("room", 0, aggs...), f.budget, cpPolicy)
	if err != nil {
		return err
	}
	var sum power.Watts
	for r := 0; r < f.size.racks; r++ {
		got, exp := f.lastBudget(r), want.NodeBudgets[cpRackID(r)]
		if math.Abs(float64(got-exp)) > 1e-6 {
			return fmt.Errorf("rack %d holds budget %.9f W, monolithic allocation gives %.9f W", r, float64(got), float64(exp))
		}
		sum += got
	}
	if sum > f.budget+1e-3 {
		return fmt.Errorf("rack budgets sum to %.3f W, over the room budget %.3f W", float64(sum), float64(f.budget))
	}
	return nil
}

// cpPlane is one client side over a fleet: a TCP client per endpoint
// (binary codec) and the 3-level hierarchy steering them. Stub racks are
// dialed with digests on the wire, so tiers-100k carries the digest
// sub-format in every frame. Real racks are dialed without: a rack's
// digest holds its budget and headroom, which move by more than any
// useful deadband every period under a shared room budget, so with
// digests on no gather ever squashes (measured: 0 of 2 500) and
// fleet-100k would never reach the delta path it is there to exercise.
// The tiers fold a fleet digest either way, synthesised from summaries.
type cpPlane struct {
	clients []*controlplane.TCPClient
	h       *controlplane.Hierarchy
}

func (f *cpFleet) dial(reg *telemetry.Registry, hierOpts ...controlplane.Option) (*cpPlane, error) {
	p := &cpPlane{}
	racks := make(map[string]controlplane.RackClient, f.size.racks)
	for g, srv := range f.servers {
		c := controlplane.DialRack(srv.Addr(), 0,
			controlplane.WithWireCodec(controlplane.CodecBinary),
			controlplane.WithDigests(f.stubbed()),
			controlplane.WithTelemetry(reg))
		p.clients = append(p.clients, c)
		for r := g * f.size.fanOut; r < min((g+1)*f.size.fanOut, f.size.racks); r++ {
			racks[cpRackID(r)] = c.Rack(cpRackID(r))
		}
	}
	h, err := controlplane.BuildHierarchy(racks, controlplane.HierarchyConfig{
		Levels: cpLevels, FanOut: f.size.fanOut, Policy: cpPolicy, Budget: f.budget, Opts: hierOpts,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.h = h
	return p, nil
}

func (p *cpPlane) close() {
	for _, c := range p.clients {
		c.Close()
	}
}

// period runs one gather→allocate→push period and reports its wall time
// as the driver sees it, the error counts of every tier, and whether the
// period counts as failed.
func (p *cpPlane) period(ctx context.Context) (time.Duration, controlplane.PeriodStats, error) {
	start := time.Now()
	_, stats, err := p.h.Room.RunPeriod(ctx)
	d := time.Since(start)
	if err == nil {
		// The room only sees its own children; a rack an aggregator could
		// not reach shows in that aggregator's stats alone.
		for _, tier := range p.h.Tiers {
			for _, agg := range tier {
				st := agg.LastStats()
				stats.GatherErrors += st.GatherErrors
				stats.ApplyErrors += st.ApplyErrors
				stats.BudgetsHeld += st.BudgetsHeld
			}
		}
		if stats.GatherErrors > 0 || stats.ApplyErrors > 0 || stats.BudgetsHeld > 0 {
			err = fmt.Errorf("period degraded: %d gather errors, %d apply errors, %d budgets held",
				stats.GatherErrors, stats.ApplyErrors, stats.BudgetsHeld)
		}
	}
	return d, stats, err
}

func cpSizeOf(cfg runConfig) cpSize {
	if cfg.toy {
		return cpToySize
	}
	return cpFullSize
}

// cpSetup builds a fleet and a bare plane and runs the warm-up periods:
// connection establishment, codec negotiation, buffer growth.
func cpSetup(cfg runConfig, stub bool, rec *spanRecorder) (f *cpFleet, p *cpPlane, err error) {
	size := cpSizeOf(cfg)
	if f, err = newCPFleet(uint64(cfg.seed), size, stub, rec); err != nil {
		return nil, nil, err
	}
	if p, err = f.dial(nil); err != nil {
		f.close()
		return nil, nil, err
	}
	for i := 0; i < size.warmup && err == nil; i++ {
		if err = f.churn(); err == nil {
			_, _, err = p.period(context.Background())
		}
	}
	if err != nil {
		p.close()
		f.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, p, nil
}

// cpWorkload is fleet-100k (stub false) or tiers-100k (stub true).
type cpWorkload struct{ stub bool }

func (w cpWorkload) timed(cfg runConfig) (*result, error) {
	res := newResult()
	var f *cpFleet
	var p *cpPlane
	setup, err := medianSetup(cfg.setups, func(last bool) error {
		var err error
		f, p, err = cpSetup(cfg, w.stub, nil)
		if err == nil && !last {
			p.close()
			f.close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	defer p.close()
	res.set("setup_s", setup, cfg.setups)

	ctx := context.Background()
	periods := make([]float64, 0, 1<<16)
	runtime.GC()
	for start := time.Now(); time.Since(start) < cfg.duration; {
		if err := f.churn(); err != nil {
			return nil, err
		}
		d, _, err := p.period(ctx)
		res.attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		periods = append(periods, float64(d)/float64(time.Millisecond))
	}
	if err := f.checkBudgets(); err != nil {
		res.fail(fmt.Errorf("budget oracle: %w", err))
	}
	res.opMetrics(periods)
	return res, nil
}

// cpTraceBlock is how many measured periods each plane runs before the
// traced run moves to the next plane; one unmeasured resync period goes
// first, because the planes share the racks and each connection's delta
// cache went stale while the others ran.
const cpTraceBlock = 8

func (w cpWorkload) traced(cfg runConfig) (*result, error) {
	res := newResult()
	size := cpSizeOf(cfg)
	rec := newSpanRecorder((size.racks+size.fanOut-1)/size.fanOut, 4*size.fanOut, 3)
	f, bare, err := cpSetup(cfg, w.stub, rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	defer bare.close()

	// Three planes over the same racks, run in interleaved blocks so slow
	// drift of the host hits all of them alike: bare (as in the timed
	// run), traced (rack decorators recording, transport counters on a
	// registry), and obs (registry and fleet history attached to clients
	// and tiers — the program's own observability. The flight recorder
	// is left out: with it every batched binary RPC to a real rack fails
	// to decode, see README "Findings").
	traceReg := telemetry.NewRegistry()
	tracedPlane, err := f.dial(traceReg)
	if err != nil {
		return nil, err
	}
	defer tracedPlane.close()
	obsReg := telemetry.NewRegistry()
	obsPlane, err := f.dial(obsReg,
		controlplane.WithTelemetry(obsReg),
		controlplane.WithFleetHistory(fleetobs.DefaultHistorySize))
	if err != nil {
		return nil, err
	}
	defer obsPlane.close()

	ctx := context.Background()
	var bareMs, tracedMs, obsMs []float64
	var gatherUs, applyUs, busyMs, coverMs, selfMs []float64 // one value per traced period
	var spans []span
	var gather, apply []float64 // scratch: one period's rack call durations
	counters := newWireCounters(traceReg)
	var wire wireCounts // summed over the traced periods
	tracedPeriods := 0
	var last controlplane.PeriodStats
	sampler := startGoroutineSampler()
	var proc procDelta

	run := func(p *cpPlane, sink *[]float64, traced bool) error {
		for i := 0; i <= cpTraceBlock; i++ {
			if err := f.churn(); err != nil {
				return err
			}
			measured := i > 0
			var c0 wireCounts
			if traced && measured {
				c0 = counters.read()
				rec.period.Store(int32(tracedPeriods))
				rec.on.Store(true)
			}
			t0 := rec.now()
			d, stats, err := p.period(ctx)
			t1 := rec.now()
			rec.on.Store(false)
			if !measured {
				if err != nil {
					return fmt.Errorf("resync period: %w", err)
				}
				continue
			}
			res.attempted++
			if err != nil {
				res.fail(err)
				spans = rec.drain(spans[:0])
				continue
			}
			last = stats
			*sink = append(*sink, float64(d)/float64(time.Millisecond))
			if !traced {
				continue
			}
			for i, v := range counters.read() {
				wire[i] += v - c0[i]
			}
			root := span{Name: spanPeriod, Rack: -1, Period: int32(tracedPeriods), Start: t0, End: t1}
			spans = rec.drain(spans[:0])
			rec.retain(root, spans)
			// One median per period keeps millions of per-call samples out
			// of the traced run's heap.
			gather, apply = gather[:0], apply[:0]
			for _, s := range spans {
				us := float64(s.End-s.Start) / 1e3
				if s.Name == spanRackGather {
					gather = append(gather, us)
				} else {
					apply = append(apply, us)
				}
			}
			gatherUs = append(gatherUs, median(gather))
			applyUs = append(applyUs, median(apply))
			cover, busy := unionCover(spans, t0, t1)
			self := (t1 - t0) - cover
			busyMs = append(busyMs, float64(busy)/1e6)
			coverMs = append(coverMs, float64(cover)/1e6)
			selfMs = append(selfMs, float64(self)/1e6)
			tracedPeriods++
		}
		return nil
	}
	// The periods get 60 % of the run; the sequential probes the rest.
	for start := time.Now(); time.Since(start) < cfg.duration*6/10 || len(tracedMs) == 0; {
		// proc.* describe the bare plane: the program as the timed run
		// drives it, resync period included.
		before := takeProcSnapshot()
		if err := run(bare, &bareMs, false); err != nil {
			return nil, err
		}
		proc.add(before, takeProcSnapshot(), cpTraceBlock+1)
		if err := run(tracedPlane, &tracedMs, true); err != nil {
			return nil, err
		}
		if err := run(obsPlane, &obsMs, false); err != nil {
			return nil, err
		}
	}
	peak := sampler.stop()
	if err := f.checkBudgets(); err != nil {
		res.fail(fmt.Errorf("budget oracle: %w", err))
	}
	if len(bareMs) == 0 || len(tracedMs) == 0 || len(obsMs) == 0 {
		return res, nil // every period failed; the failures are already counted
	}

	res.set("controlplane.rack.gather_us_p50", median(gatherUs), len(gatherUs))
	res.set("controlplane.rack.apply_us_p50", median(applyUs), len(applyUs))
	res.set("controlplane.rack.busy_ms_per_period", median(busyMs), len(busyMs))
	res.set("controlplane.rack.cover_ms_per_period", median(coverMs), len(coverMs))
	res.set("controlplane.tiers.self_ms_per_period", median(selfMs), len(selfMs))
	// Self time is the period minus what its children cover, so the two
	// must add back up to the period; a gap means spans leaked across
	// periods or the clocks disagree.
	for i := range coverMs {
		if sum := coverMs[i] + selfMs[i]; math.Abs(sum-tracedMs[i]) > 0.02*tracedMs[i] {
			res.fail(fmt.Errorf("traced period %d: rack cover %.3f ms + tiers self %.3f ms is not the period's %.3f ms", i, coverMs[i], selfMs[i], tracedMs[i]))
			break
		}
	}
	n := float64(tracedPeriods)
	res.set("controlplane.transport.bytes_in_per_period", wire[wireBytesIn]/n, tracedPeriods)
	res.set("controlplane.transport.bytes_out_per_period", wire[wireBytesOut]/n, tracedPeriods)
	res.set("controlplane.transport.frames_per_period", wire[wireFrames]/n, tracedPeriods)
	res.set("controlplane.transport.delta_hit_ratio", wire[wireDeltaHits]/(n*float64(size.racks)), tracedPeriods)
	res.set("controlplane.peak_goroutines", float64(peak), 1)
	res.set("controlplane.gather_errors", float64(last.GatherErrors), 1)
	res.set("controlplane.apply_errors", float64(last.ApplyErrors), 1)
	res.set("controlplane.budgets_held", float64(last.BudgetsHeld), 1)
	sortedBare := sortedCopy(bareMs)
	res.set("controlplane.period_p99_ms", quantile(sortedBare, 0.99), len(bareMs))
	res.set("controlplane.period_max_ms", sortedBare[len(sortedBare)-1], len(bareMs))
	res.set("controlplane.obs_on_ratio", median(obsMs)/median(bareMs), len(obsMs))
	res.set("trace.overhead_ratio", median(tracedMs)/median(bareMs), len(tracedMs))
	proc.report(res)

	if err := f.probes(cfg, res, bare); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		if err := rec.writeChromeTrace(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probes times the layers the rack decorators cannot reach, one after
// the other on the standing fleet, by calling their public functions.
func (f *cpFleet) probes(cfg runConfig, res *result, p *cpPlane) error {
	ctx := context.Background()
	size := f.size
	group := min(size.fanOut, size.racks)
	ids := make([]string, group)
	for r := range ids {
		ids[r] = cpRackID(r)
	}
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	// Between calls the probed group's inputs change as they do between
	// periods, so a gather moves the frames a period would.
	step := f.step
	change := func() {
		step++
		if f.stubbed() {
			f.epoch.Add(1)
		} else {
			note(f.churnGroup(0, step))
		}
	}
	slice := cfg.duration / 10

	client := p.clients[0]
	out := make([]controlplane.GatherResult, group)
	us := timeCalls(slice, cfg.probeCalls, 1, change, func() { note(client.GatherBatch(ctx, ids, out)) })
	res.set("controlplane.transport.gather_batch_us_p50", median(us)/1e3, len(us))
	budgets := make([]controlplane.BatchBudget, group)
	for r := range budgets {
		budgets[r] = controlplane.BatchBudget{Rack: ids[r], Budget: f.lastBudget(r)}
	}
	errs := make([]error, group)
	us = timeCalls(slice, cfg.probeCalls, 1, nil, func() { note(client.ApplyBudgetBatch(ctx, budgets, errs)) })
	res.set("controlplane.transport.push_batch_us_p50", median(us)/1e3, len(us))

	agg := p.h.Tiers[0][0]
	us = timeCalls(slice, cfg.probeCalls, 1, change, func() { _, err := agg.Gather(ctx); note(err) })
	res.set("controlplane.agg.gather_us_p50", median(us)/1e3, len(us))
	aggBudget := agg.LastBudget()
	us = timeCalls(slice, cfg.probeCalls, 1, nil, func() { note(agg.ApplyBudget(ctx, aggBudget)) })
	res.set("controlplane.agg.apply_us_p50", median(us)/1e3, len(us))
	if probeErr != nil {
		return fmt.Errorf("control-plane probe: %w", probeErr)
	}

	// core, on the workload's own trees: the one-shot API a rack worker
	// calls every period, and the tier-side split over every rack.
	tree := newRackTree(f.seed, size, 0, 0)
	leaves := float64(size.servers)
	ns := timeCalls(slice/4, cfg.probeCalls, 1, nil, func() { _, err := core.Summarize(tree, cpPolicy); note(err) })
	res.set("core.summarize_ns_per_leaf", median(ns)/leaves, len(ns))
	rackBudget := f.lastBudget(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ns = timeCalls(slice/4, cfg.probeCalls, 1, nil, func() { _, err := core.Allocate(tree, rackBudget, cpPolicy); note(err) })
	runtime.ReadMemStats(&ms1)
	res.set("core.allocate_ns_per_leaf", median(ns)/leaves, len(ns))
	res.set("core.allocate_mallocs_per_leaf", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(ns))/leaves, len(ns))
	sums := make([]core.Summary, size.racks)
	for r := range sums {
		s, err := f.summaryOf(r)
		if err != nil {
			return err
		}
		sums[r] = s
	}
	ns = timeCalls(slice/4, cfg.probeCalls, 1, nil, func() { core.DistributeBudget(f.budget, sums) })
	res.set("core.distribute_ns_per_child", median(ns)/float64(size.racks), len(ns))
	if probeErr != nil {
		return fmt.Errorf("core probe: %w", probeErr)
	}
	return nil
}

// wireCounters are the client-side wire counters the transport registers
// on a telemetry.Registry; wireCounts is one reading of them.
type (
	wireCounters [4]*telemetry.Counter
	wireCounts   [4]float64
)

const (
	wireBytesIn = iota
	wireBytesOut
	wireDeltaHits
	wireFrames
)

func newWireCounters(reg *telemetry.Registry) wireCounters {
	bytes := reg.CounterVec("capmaestro_rpc_bytes_total", "", "role", "direction")
	return wireCounters{
		wireBytesIn:   bytes.With("client", "in"),
		wireBytesOut:  bytes.With("client", "out"),
		wireDeltaHits: reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role").With("client"),
		wireFrames:    reg.CounterVec("capmaestro_rpc_batch_frames_total", "", "role").With("client"),
	}
}

func (c wireCounters) read() (w wireCounts) {
	for i, ctr := range c {
		w[i] = ctr.Value()
	}
	return w
}

// goroutineSampler tracks the peak goroutine count of the traced run.
type goroutineSampler struct {
	quit chan struct{}
	done chan int
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{quit: make(chan struct{}), done: make(chan int)}
	go func() {
		peak := runtime.NumGoroutine()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				s.done <- peak
				return
			case <-t.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return s
}

func (s *goroutineSampler) stop() int {
	close(s.quit)
	return <-s.done
}
