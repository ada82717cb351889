package controlplane

import (
	"context"
	"runtime"
	"sync"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
)

// limiter bounds the number of rack RPCs a worker keeps in flight at once.
// Goroutines are spawned only after a slot is acquired, so a wave over N
// children never holds more than cap(limiter) goroutines alive — the
// unbounded goroutine-per-rack fan-out this replaces peaked at N.
//
// Each worker owns its own limiter. Sharing one limiter across nested
// in-process tiers (a room whose children are in-process aggregators)
// would deadlock once every slot is held by a parent RPC that is itself
// waiting for a child slot.
type limiter chan struct{}

func newLimiter(n int) limiter {
	if n <= 0 {
		n = defaultRPCConcurrency()
	}
	return make(limiter, n)
}

func (l limiter) acquire() { l <- struct{}{} }
func (l limiter) release() { <-l }

// defaultRPCConcurrency scales with GOMAXPROCS but stays well above it:
// rack RPCs are I/O-bound, so even a single-core controller wants dozens
// in flight to hide network latency.
func defaultRPCConcurrency() int {
	n := 16 * runtime.GOMAXPROCS(0)
	if n < 32 {
		n = 32
	}
	return n
}

// batcher is a transport that can multiplex gathers and budget pushes for
// many racks over one connection in single batch frames. *TCPClient
// implements it.
type batcher interface {
	GatherBatch(ctx context.Context, racks []string, out []GatherResult) error
	ApplyBudgetBatch(ctx context.Context, budgets []BatchBudget, out []error) error
}

// batchEndpoint is implemented by RackClients that are views of one rack
// on a shared multi-rack transport (see TCPClient.Rack). The fan-out
// engine groups such clients by transport and issues one batch RPC per
// transport instead of one RPC per rack.
type batchEndpoint interface {
	batchTarget() (tr batcher, rack string, label string)
}

// fanCall is one child's slot in a gather or push wave. The engine reuses
// the backing slice across periods, so steady state allocates no per-rack
// bookkeeping.
type fanCall struct {
	id      string
	client  RackClient
	skip    bool // held: excluded from this wave
	batched bool // claimed by a batchTask this wave
	budget  power.Watts
	summary core.Summary
	// digest is the child's fleet digest when the engine gathers digests
	// and the child produced one (nil otherwise; the worker synthesizes).
	digest *fleetobs.StatDigest
	// elapsed is the gather RPC's round-trip time (the whole batch
	// frame's, for batched calls), observed into the fleet digest's
	// per-level gather-latency histogram.
	elapsed time.Duration
	err     error
}

// batchTask is one transport's share of a wave: the calls it serves and
// the request/result scratch for its batch RPC. Reused across periods.
type batchTask struct {
	e       *fanEngine
	tr      batcher
	label   string
	idx     []int // indices into e.calls
	ids     []string
	budgets []BatchBudget
	gout    []GatherResult
	aout    []error
}

// fanEngine runs bounded-concurrency gather and push waves over a fixed
// set of children: one engine per worker, reused every period, running
// one wave at a time.
type fanEngine struct {
	lim   limiter
	calls []fanCall
	wg    sync.WaitGroup

	// digests asks gather waves to collect fleet digests from children
	// that implement DigestGatherer.
	digests bool

	// wave-scoped; set before spawning, read by wave goroutines.
	ctx    context.Context
	pt     *flightrec.PeriodTrace
	parent string

	tasks   []batchTask
	taskIdx map[batcher]int
}

func newFanEngine(lim limiter, capacity int) *fanEngine {
	return &fanEngine{
		lim:     lim,
		calls:   make([]fanCall, 0, capacity),
		taskIdx: make(map[batcher]int),
	}
}

// reset clears the call list for a new wave, keeping backing storage.
func (e *fanEngine) reset() { e.calls = e.calls[:0] }

// add appends one child to the wave.
func (e *fanEngine) add(id string, client RackClient) *fanCall {
	e.calls = append(e.calls, fanCall{id: id, client: client})
	return &e.calls[len(e.calls)-1]
}

// groupBatches partitions the wave's live calls into per-transport batch
// tasks, marking claimed calls. Calls whose client is not a batch
// endpoint (in-process clients, plain TCP clients, fault-injection
// wrappers) run as single RPCs.
func (e *fanEngine) groupBatches(push bool) {
	e.tasks = e.tasks[:0]
	clear(e.taskIdx)
	for i := range e.calls {
		c := &e.calls[i]
		c.batched = false
		if c.skip {
			continue
		}
		be, ok := c.client.(batchEndpoint)
		if !ok {
			continue
		}
		tr, rack, label := be.batchTarget()
		if tr == nil {
			continue
		}
		ti, ok := e.taskIdx[tr]
		if !ok {
			ti = len(e.tasks)
			if ti < cap(e.tasks) {
				e.tasks = e.tasks[:ti+1]
			} else {
				e.tasks = append(e.tasks, batchTask{})
			}
			t := &e.tasks[ti]
			t.e, t.tr, t.label = e, tr, label
			t.idx = t.idx[:0]
			t.ids = t.ids[:0]
			t.budgets = t.budgets[:0]
			e.taskIdx[tr] = ti
		}
		t := &e.tasks[ti]
		t.idx = append(t.idx, i)
		t.ids = append(t.ids, rack)
		if push {
			t.budgets = append(t.budgets, BatchBudget{Rack: rack, Budget: c.budget})
		}
		c.batched = true
	}
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if cap(t.gout) < len(t.idx) {
			t.gout = make([]GatherResult, len(t.idx))
			t.aout = make([]error, len(t.idx))
		}
	}
}

// gatherWave collects summaries from every live call, bounded by the
// limiter, batching where the transport allows. Results land in the calls'
// summary/err fields.
func (e *fanEngine) gatherWave(ctx context.Context, pt *flightrec.PeriodTrace, parentID string) {
	e.runWave(ctx, pt, parentID, false)
}

// pushWave distributes each live call's budget, bounded by the limiter,
// batching where the transport allows. Push outcomes land in the calls'
// err fields.
func (e *fanEngine) pushWave(ctx context.Context, pt *flightrec.PeriodTrace, parentID string) {
	e.runWave(ctx, pt, parentID, true)
}

func (e *fanEngine) runWave(ctx context.Context, pt *flightrec.PeriodTrace, parentID string, push bool) {
	e.ctx, e.pt, e.parent = ctx, pt, parentID
	e.groupBatches(push)
	for ti := range e.tasks {
		e.lim.acquire()
		e.wg.Add(1)
		if push {
			go e.tasks[ti].push()
		} else {
			go e.tasks[ti].gather()
		}
	}
	for i := range e.calls {
		c := &e.calls[i]
		if c.skip || c.batched {
			continue
		}
		e.lim.acquire()
		e.wg.Add(1)
		if push {
			go e.pushOne(i)
		} else {
			go e.gatherOne(i)
		}
	}
	e.wg.Wait()
	e.ctx, e.pt = nil, nil
}

func (e *fanEngine) gatherOne(i int) {
	c := &e.calls[i]
	span := e.pt.StartSpan("rpc.gather", c.id, e.parent)
	ctx := flightrec.ContextWithSpan(e.ctx, e.pt, span)
	start := time.Now()
	var s core.Summary
	var dig *fleetobs.StatDigest
	var err error
	if dg, ok := c.client.(DigestGatherer); ok && e.digests {
		s, dig, err = dg.GatherDigest(ctx)
	} else {
		s, err = c.client.Gather(ctx)
	}
	c.elapsed = time.Since(start)
	if err == nil {
		err = s.Validate()
	}
	span.End(err)
	c.summary, c.digest, c.err = s, dig, err
	e.lim.release()
	e.wg.Done()
}

func (e *fanEngine) pushOne(i int) {
	c := &e.calls[i]
	span := e.pt.StartSpan("rpc.apply", c.id, e.parent)
	err := c.client.ApplyBudget(flightrec.ContextWithSpan(e.ctx, e.pt, span), c.budget)
	span.End(err)
	c.err = err
	e.lim.release()
	e.wg.Done()
}

func (t *batchTask) gather() {
	e := t.e
	span := e.pt.StartSpan("rpc.gather", t.label, e.parent)
	start := time.Now()
	err := t.tr.GatherBatch(flightrec.ContextWithSpan(e.ctx, e.pt, span), t.ids, t.gout[:len(t.idx)])
	elapsed := time.Since(start)
	span.End(err)
	for j, i := range t.idx {
		c := &e.calls[i]
		c.elapsed = elapsed
		if err != nil {
			c.err = err
			continue
		}
		r := t.gout[j]
		if r.Err == nil {
			r.Err = r.Summary.Validate()
		}
		c.summary, c.digest, c.err = r.Summary, r.Digest, r.Err
	}
	e.lim.release()
	e.wg.Done()
}

func (t *batchTask) push() {
	e := t.e
	span := e.pt.StartSpan("rpc.apply", t.label, e.parent)
	err := t.tr.ApplyBudgetBatch(flightrec.ContextWithSpan(e.ctx, e.pt, span), t.budgets, t.aout[:len(t.idx)])
	span.End(err)
	for j, i := range t.idx {
		c := &e.calls[i]
		if err != nil {
			c.err = err
			continue
		}
		c.err = t.aout[j]
	}
	e.lim.release()
	e.wg.Done()
}
