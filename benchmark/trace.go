package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"capmaestro/internal/controlplane"
	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/power"
)

// Span names. A period span is the root of one RunPeriod; rack spans are
// its children, recorded by the server-side decorators.
const (
	spanPeriod uint8 = iota
	spanRackGather
	spanRackApply
)

var spanNames = [...]string{"period", "rack.gather", "rack.apply"}

// spanRecorder keeps the traced run's spans in pre-sized memory. Rack
// spans land in one buffer per rack endpoint (one server connection
// handles an endpoint's batch frame, so a buffer has one writer at a
// time; the mutex orders that writer against the driver's drain, which
// the TCP round trip alone would not for the race detector).
type spanRecorder struct {
	epoch  time.Time
	on     atomic.Bool  // rack decorators record only while set
	period atomic.Int32 // id of the period in flight, the rack spans' parent

	groups []spanGroup
	kept   []span // spans retained for the Chrome trace file
	keep   int    // how many periods' spans to retain
}

type spanGroup struct {
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder(groups, spansPerGroup, keepPeriods int) *spanRecorder {
	r := &spanRecorder{epoch: time.Now(), groups: make([]spanGroup, groups), keep: keepPeriods}
	for i := range r.groups {
		r.groups[i].spans = make([]span, 0, spansPerGroup)
	}
	return r
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *spanRecorder) add(group int, name uint8, rack int32, start, end int64) {
	g := &r.groups[group]
	g.mu.Lock()
	g.spans = append(g.spans, span{Name: name, Rack: rack, Period: r.period.Load(), Start: start, End: end})
	g.mu.Unlock()
}

// drain moves every buffered rack span into dst and empties the buffers.
func (r *spanRecorder) drain(dst []span) []span {
	for i := range r.groups {
		g := &r.groups[i]
		g.mu.Lock()
		dst = append(dst, g.spans...)
		g.spans = g.spans[:0]
		g.mu.Unlock()
	}
	return dst
}

// retain copies one period's spans (root first) for the trace file while
// fewer than keep periods are held.
func (r *spanRecorder) retain(root span, children []span) {
	if int(root.Period) >= r.keep {
		return
	}
	r.kept = append(r.kept, root)
	r.kept = append(r.kept, children...)
}

// writeChromeTrace writes the retained spans as Chrome-trace JSON
// (chrome://tracing, Perfetto): one complete event per span, the period
// id as pid so each period folds into its own track group and the rack
// index as tid.
func (r *spanRecorder) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range r.kept {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		parent := "period"
		if s.Name == spanPeriod {
			parent = ""
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"parent":%q,"period":%d}}`,
			spanNames[s.Name], s.Period, s.Rack+1, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, parent, s.Period)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rackServerSide is what a rack endpoint hosts: RackWorkers and the
// benchmark's stubs both gather with a digest.
type rackServerSide interface {
	controlplane.RackClient
	controlplane.DigestGatherer
}

// tracedRack is the server-side decorator handed to ServeRacks in a
// traced run: it times every call into the rack it wraps from outside.
type tracedRack struct {
	inner rackServerSide
	rec   *spanRecorder
	group int
	rack  int32
}

func (t *tracedRack) Gather(ctx context.Context) (core.Summary, error) {
	if !t.rec.on.Load() {
		return t.inner.Gather(ctx)
	}
	start := t.rec.now()
	s, err := t.inner.Gather(ctx)
	t.rec.add(t.group, spanRackGather, t.rack, start, t.rec.now())
	return s, err
}

func (t *tracedRack) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	if !t.rec.on.Load() {
		return t.inner.GatherDigest(ctx)
	}
	start := t.rec.now()
	s, d, err := t.inner.GatherDigest(ctx)
	t.rec.add(t.group, spanRackGather, t.rack, start, t.rec.now())
	return s, d, err
}

func (t *tracedRack) ApplyBudget(ctx context.Context, b power.Watts) error {
	if !t.rec.on.Load() {
		return t.inner.ApplyBudget(ctx, b)
	}
	start := t.rec.now()
	err := t.inner.ApplyBudget(ctx, b)
	t.rec.add(t.group, spanRackApply, t.rack, start, t.rec.now())
	return err
}
