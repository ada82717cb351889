package scale

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"capmaestro/internal/controlplane"
	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// Server fleet geometry: every simulated server idles at 270 W, caps at
// 490 W, and demands a deterministic value in [300, 480) derived from the
// spec seed — the envelope the repo's allocation benchmarks use. Every
// third server is priority 1 (latency-critical), the rest priority 3.
const (
	capMin = power.Watts(270)
	capMax = power.Watts(490)
)

// mix is a splitmix64-style hash combining the spec seed with rack and
// server indices, so demand mixes are deterministic per spec and
// independent of build order.
func mix(seed uint64, rack, srv int) uint64 {
	z := seed + (uint64(rack)*1_000_003+uint64(srv)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func rackID(r int) string { return fmt.Sprintf("rack%05d", r) }

// buildRack constructs one rack worker's subtree: ServersPerRack supply
// leaves under an unconstrained shifting node.
func buildRack(spec *Spec, r int) *core.Node {
	leaves := make([]*core.Node, spec.ServersPerRack)
	id := rackID(r)
	for i := range leaves {
		prio := core.Priority(3)
		if i%3 == 0 {
			prio = 1
		}
		demand := power.Watts(300 + mix(spec.Seed, r, i)%180)
		leaves[i] = core.NewLeaf(fmt.Sprintf("%s/srv%03d", id, i), core.SupplyLeaf{
			SupplyID: fmt.Sprintf("%s/srv%03d", id, i),
			ServerID: fmt.Sprintf("%s/srv%03d", id, i),
			Priority: prio, Share: 1,
			CapMin: capMin, CapMax: capMax, Demand: demand,
		})
	}
	return core.NewShifting(id, 0, leaves...)
}

// totalDemand sums the deterministic demand of every server in the spec,
// so the room budget can be set to a fraction that forces real capping.
func totalDemand(spec *Spec) power.Watts {
	var sum power.Watts
	for r := 0; r < spec.Racks; r++ {
		for i := 0; i < spec.ServersPerRack; i++ {
			sum += power.Watts(300 + mix(spec.Seed, r, i)%180)
		}
	}
	return sum
}

// latencyProxy forwards TCP connections to a backend, delaying each
// inbound chunk (≈ one request frame — requests on a connection are
// serialized by the client) by a fixed duration. It emulates per-frame
// network latency on loopback: batch frames pay it once per frame, not
// once per rack, exactly like a real network round trip.
type latencyProxy struct {
	ln      net.Listener
	backend string
	delay   time.Duration
	mu      sync.Mutex
	conns   []net.Conn
	closed  bool
}

func newLatencyProxy(backend string, delay time.Duration) (*latencyProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &latencyProxy{ln: ln, backend: backend, delay: delay}
	go p.accept()
	return p, nil
}

func (p *latencyProxy) Addr() string { return p.ln.Addr().String() }

func (p *latencyProxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			up.Close()
			return
		}
		p.conns = append(p.conns, conn, up)
		p.mu.Unlock()
		go p.pipe(conn, up, p.delay) // requests: delayed
		go p.pipe(up, conn, 0)       // responses: free (delay is one-way)
	}
}

func (p *latencyProxy) pipe(from, to net.Conn, delay time.Duration) {
	buf := make([]byte, 64<<10)
	for {
		n, err := from.Read(buf)
		if n > 0 {
			if delay > 0 {
				time.Sleep(delay)
			}
			if _, werr := to.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	from.Close()
	to.Close()
}

func (p *latencyProxy) Close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// singleOp hides the batch capability of a rack handle, forcing the
// fan-out engine to issue one RPC per rack: the pre-batching baseline.
type singleOp struct{ h *controlplane.RackHandle }

func (s singleOp) Gather(ctx context.Context) (core.Summary, error) { return s.h.Gather(ctx) }
func (s singleOp) ApplyBudget(ctx context.Context, b power.Watts) error {
	return s.h.ApplyBudget(ctx, b)
}

// fleet is the harness's standing infrastructure for one run: rack
// servers, optional latency proxies, and the TCP clients the hierarchy
// steers.
type fleet struct {
	servers []*controlplane.RackServer
	proxies []*latencyProxy
	tcp     []*controlplane.TCPClient
	clients map[string]controlplane.RackClient
}

func (f *fleet) Close() {
	for _, c := range f.tcp {
		c.Close()
	}
	for _, p := range f.proxies {
		p.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// buildFleet stands up the rack workers grouped FanOut-per-endpoint on
// real TCP listeners and dials them according to the spec's codec and
// batch settings.
func buildFleet(spec *Spec, reg *telemetry.Registry) (*fleet, error) {
	serverOpts := []controlplane.Option{}
	clientOpts := []controlplane.Option{controlplane.WithTelemetry(reg)}
	switch spec.Codec {
	case "binary":
		serverOpts = append(serverOpts, controlplane.WithDeltaDeadband(-1))
	case "binary-delta":
		serverOpts = append(serverOpts, controlplane.WithDeltaDeadband(1))
	}
	if spec.Digests {
		clientOpts = append(clientOpts, controlplane.WithDigests(true))
	}

	f := &fleet{clients: make(map[string]controlplane.RackClient, spec.Racks)}
	delay := time.Duration(spec.RPCLatencyMs * float64(time.Millisecond))
	for base := 0; base < spec.Racks; base += spec.FanOut {
		end := min(base+spec.FanOut, spec.Racks)
		workers := make(map[string]controlplane.RackClient, end-base)
		for r := base; r < end; r++ {
			w, err := controlplane.NewRackWorker(rackID(r), buildRack(spec, r), core.GlobalPriority, nil)
			if err != nil {
				f.Close()
				return nil, err
			}
			workers[w.ID()] = w
		}
		srv, err := controlplane.ServeRacks(workers, "127.0.0.1:0", serverOpts...)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		addr := srv.Addr()
		if delay > 0 {
			p, err := newLatencyProxy(addr, delay)
			if err != nil {
				f.Close()
				return nil, err
			}
			f.proxies = append(f.proxies, p)
			addr = p.Addr()
		}
		if spec.Batch {
			// One shared connection per endpoint; racks ride batch frames.
			c := controlplane.DialRack(addr, 2*time.Second, clientOpts...)
			f.tcp = append(f.tcp, c)
			for r := base; r < end; r++ {
				f.clients[rackID(r)] = c.Rack(rackID(r))
			}
		} else {
			// One connection per rack, one RPC per rack: the baseline.
			for r := base; r < end; r++ {
				c := controlplane.DialRack(addr, 2*time.Second, clientOpts...)
				f.tcp = append(f.tcp, c)
				f.clients[rackID(r)] = singleOp{c.Rack(rackID(r))}
			}
		}
	}
	return f, nil
}

// goroutineSampler tracks the peak goroutine count while running.
type goroutineSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int
}

func startSampler() *goroutineSampler {
	s := &goroutineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak = runtime.NumGoroutine()
	go func() {
		defer close(s.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > s.peak {
					s.peak = n
				}
			}
		}
	}()
	return s
}

func (s *goroutineSampler) Stop() int {
	close(s.stop)
	<-s.done
	if n := runtime.NumGoroutine(); n > s.peak {
		s.peak = n
	}
	return s.peak
}

// counterValue reads a labeled counter from the shared registry; the
// families were registered by the transport clients.
func counterValue(reg *telemetry.Registry, name string, labels ...string) float64 {
	switch name {
	case "capmaestro_rpc_bytes_total":
		return reg.CounterVec(name, "Bytes moved over rack transport connections.",
			"role", "direction").With(labels...).Value()
	case "capmaestro_rpc_delta_hits_total":
		return reg.CounterVec(name, "Gather responses squashed to (server) or resolved from (client) an unchanged-summary delta frame.",
			"role").With(labels...).Value()
	case "capmaestro_fleet_digest_wire_bytes_total":
		return reg.CounterVec(name, "Bytes of fleet digest payload carried inside binary gather frames; digest_wire_bytes/rpc_bytes is the observability plane's wire overhead.",
			"role").With(labels...).Value()
	}
	return 0
}

// Run executes one spec: build the fleet and hierarchy, run warmup +
// measured control periods, and report latency, goroutine, and wire
// measurements.
func Run(ctx context.Context, spec Spec, logf func(format string, args ...any)) (*Result, error) {
	spec.defaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := telemetry.NewRegistry()

	logf("building %d racks × %d servers (%d total) ...", spec.Racks, spec.ServersPerRack, spec.Racks*spec.ServersPerRack)
	f, err := buildFleet(&spec, reg)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Budget at 85% of aggregate demand: every period does real capping
	// work instead of rubber-stamping demand.
	budget := totalDemand(&spec) * 85 / 100
	hopts := []controlplane.Option{
		controlplane.WithTelemetry(reg),
		controlplane.WithDigests(spec.Digests),
	}
	if spec.RPCConcurrency > 0 {
		hopts = append(hopts, controlplane.WithRPCConcurrency(spec.RPCConcurrency))
	}
	h, err := controlplane.BuildHierarchy(f.clients, controlplane.HierarchyConfig{
		Levels: spec.Levels,
		FanOut: spec.FanOut,
		Policy: core.GlobalPriority,
		Budget: budget,
		Opts:   hopts,
	})
	if err != nil {
		return nil, err
	}
	aggs := 0
	for _, tier := range h.Tiers {
		aggs += len(tier)
	}
	logf("hierarchy up: %d levels, %d aggregators, %d endpoints, budget %.0f W", spec.Levels, aggs, len(f.servers), float64(budget))

	// Warmup periods: connection establishment, codec negotiation, buffer
	// growth, first-period map fills.
	for i := 0; i < spec.Warmup; i++ {
		if _, _, err := h.Room.RunPeriod(ctx); err != nil {
			return nil, fmt.Errorf("scale: warmup period %d: %w", i, err)
		}
	}

	bytesOut0 := counterValue(reg, "capmaestro_rpc_bytes_total", "client", "out")
	bytesIn0 := counterValue(reg, "capmaestro_rpc_bytes_total", "client", "in")
	delta0 := counterValue(reg, "capmaestro_rpc_delta_hits_total", "client")
	dig0 := counterValue(reg, "capmaestro_fleet_digest_wire_bytes_total", "client")

	var elapsed []time.Duration
	var overlapSum time.Duration
	var last controlplane.PeriodStats
	sampler := startSampler()
	wallStart := time.Now()
	if spec.Pipeline {
		err = h.Room.RunPipelined(ctx, spec.Periods, func(_ *core.Allocation, stats controlplane.PeriodStats, perr error) {
			if perr == nil {
				elapsed = append(elapsed, stats.Elapsed)
				overlapSum += stats.Overlap
				last = stats
			}
		})
	} else {
		for i := 0; i < spec.Periods && err == nil; i++ {
			var stats controlplane.PeriodStats
			_, stats, err = h.Room.RunPeriod(ctx)
			if err == nil {
				elapsed = append(elapsed, stats.Elapsed)
				last = stats
			}
		}
	}
	wall := time.Since(wallStart)
	peak := sampler.Stop()
	if err != nil {
		return nil, fmt.Errorf("scale: measured periods: %w", err)
	}
	if len(elapsed) != spec.Periods {
		return nil, fmt.Errorf("scale: expected %d measured periods, got %d", spec.Periods, len(elapsed))
	}
	if last.GatherErrors > 0 || last.ApplyErrors > 0 || last.BudgetsHeld > 0 {
		return nil, fmt.Errorf("scale: final period degraded: %d gather errors, %d apply errors, %d held",
			last.GatherErrors, last.ApplyErrors, last.BudgetsHeld)
	}

	res := &Result{
		Spec:      spec,
		Servers:   spec.Racks * spec.ServersPerRack,
		Endpoints: len(f.servers),
	}
	res.P50Ms, res.P95Ms, res.P99Ms, res.MaxMs = summarizeLatencies(elapsed)
	res.EffectivePeriodMs = float64(wall) / float64(time.Millisecond) / float64(spec.Periods)
	if spec.Pipeline {
		res.MeanOverlapMs = float64(overlapSum) / float64(time.Millisecond) / float64(spec.Periods)
	}
	res.PeakGoroutines = peak
	periods := float64(spec.Periods)
	res.BytesOutPerPeriod = (counterValue(reg, "capmaestro_rpc_bytes_total", "client", "out") - bytesOut0) / periods
	res.BytesInPerPeriod = (counterValue(reg, "capmaestro_rpc_bytes_total", "client", "in") - bytesIn0) / periods
	res.DeltaHitsPerPeriod = (counterValue(reg, "capmaestro_rpc_delta_hits_total", "client") - delta0) / periods
	res.GatherErrors = last.GatherErrors
	res.ApplyErrors = last.ApplyErrors
	res.BudgetsHeld = last.BudgetsHeld
	if spec.Digests {
		res.DigestBytesPerPeriod = (counterValue(reg, "capmaestro_fleet_digest_wire_bytes_total", "client") - dig0) / periods
		if res.BytesInPerPeriod > 0 {
			res.DigestShareOfBytesIn = res.DigestBytesPerPeriod / res.BytesInPerPeriod
		}
		// The rollup is only worth shipping if it is exact: the merged
		// fleet digest must cover every rack and sum power watt-for-watt
		// against the deterministic demand the harness planted.
		rep, ok := h.Room.FleetReport()
		if !ok {
			return nil, fmt.Errorf("scale: digests on but no fleet report after %d periods", spec.Periods)
		}
		if rep.Summary.Racks != spec.Racks {
			return nil, fmt.Errorf("scale: fleet digest covers %d racks, want %d", rep.Summary.Racks, spec.Racks)
		}
		if want := float64(totalDemand(&spec)); rep.Summary.PowerWatts != want {
			return nil, fmt.Errorf("scale: fleet digest power %.3f W, want exactly %.3f W", rep.Summary.PowerWatts, want)
		}
		res.FleetRacks = rep.Summary.Racks
		res.FleetPowerWatts = rep.Summary.PowerWatts
		res.FleetOutlierRacks = rep.Summary.OutlierRacks
	}
	logf("%s: p50 %.1f ms, p99 %.1f ms, effective period %.1f ms, peak goroutines %d",
		spec.Name, res.P50Ms, res.P99Ms, res.EffectivePeriodMs, res.PeakGoroutines)
	return res, nil
}
