// Package flightrec is the control plane's flight recorder: per-period
// distributed traces (room → rack → leaves) plus the allocator's per-node
// explain records, retained in a fixed-size ring buffer and served over
// the telemetry HTTP server for post-hoc inspection.
//
// The package follows the telemetry package's nil-safety contract: a nil
// *Recorder, *PeriodTrace, or *ActiveSpan no-ops on every method, so
// instrumentation call sites are unconditional and recording is free when
// disabled.
package flightrec

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"capmaestro/internal/core"
)

// TraceContext is the wire form of a trace: the period's trace ID and the
// span the receiver should parent its own spans under. It rides the RPC
// envelope so rack-side spans nest under the room's per-period root.
type TraceContext struct {
	TraceID  string `json:"trace_id"`
	ParentID string `json:"parent_id,omitempty"`
}

// Span is one timed operation within a period's trace. Spans form a tree
// through ParentID; the period root has an empty ParentID.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Name is the operation ("period", "gather", "rpc.gather",
	// "rack.apply", ...).
	Name string `json:"name"`
	// Node is the element the operation ran against (rack ID, "room", an
	// aggregator's tree ID).
	Node     string        `json:"node,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Retries counts transport retries absorbed inside the span.
	Retries int `json:"retries,omitempty"`
	// Error carries the operation's failure, if any.
	Error string `json:"error,omitempty"`
}

// PeriodTrace collects the spans of one control period. It is safe for
// concurrent use: the room worker's parallel gather/push goroutines and
// remote span imports all append into it. A nil PeriodTrace no-ops.
type PeriodTrace struct {
	traceID string

	mu       sync.Mutex
	spans    []Span
	explains []core.NodeExplain
}

// Trace and span IDs need uniqueness, not unpredictability: each is a
// process-wide counter offset by a random per-process base and passed
// through the SplitMix64 finalizer, a bijection on 64 bits, so no two IDs
// of one process collide and two processes' IDs rarely do.
var (
	idBase = rand.Uint64()
	idNext atomic.Uint64
)

const hexDigits = "0123456789abcdef"

// newID returns the next ID as 16 lowercase hex digits.
func newID() string {
	v := idBase + idNext.Add(1)
	v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
	v = (v ^ v>>27) * 0x94d049bb133111eb
	v ^= v >> 31
	var b [16]byte
	for i := range b {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// NewPeriodTrace starts the trace for one control period with a fresh
// trace ID.
func NewPeriodTrace() *PeriodTrace {
	return &PeriodTrace{traceID: newID()}
}

// NewRemoteTrace starts a trace continuing an incoming TraceContext: spans
// recorded into it carry the remote trace ID, so they merge cleanly into
// the originator's trace when shipped back.
func NewRemoteTrace(tc *TraceContext) *PeriodTrace {
	if tc == nil || tc.TraceID == "" {
		return NewPeriodTrace()
	}
	return &PeriodTrace{traceID: tc.TraceID}
}

// TraceID returns the trace's ID ("" on nil).
func (pt *PeriodTrace) TraceID() string {
	if pt == nil {
		return ""
	}
	return pt.traceID
}

// StartSpan opens a span under the given parent span ID ("" for the
// root). End the returned span to record it; an unended span is dropped.
func (pt *PeriodTrace) StartSpan(name, node, parentID string) *ActiveSpan {
	if pt == nil {
		return nil
	}
	return &ActiveSpan{
		pt: pt,
		span: Span{
			TraceID:  pt.traceID,
			SpanID:   newID(),
			ParentID: parentID,
			Name:     name,
			Node:     node,
			Start:    time.Now(),
		},
	}
}

// Import appends spans recorded elsewhere (a rack's side of the period,
// shipped back in the RPC response). Spans from a different trace are
// re-homed under this trace's ID so the record stays self-consistent.
func (pt *PeriodTrace) Import(spans []Span) {
	if pt == nil || len(spans) == 0 {
		return
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for _, s := range spans {
		s.TraceID = pt.traceID
		pt.spans = append(pt.spans, s)
	}
}

// Spans returns a copy of the spans recorded so far.
func (pt *PeriodTrace) Spans() []Span {
	if pt == nil {
		return nil
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	out := make([]Span, len(pt.spans))
	copy(out, pt.spans)
	return out
}

func (pt *PeriodTrace) add(s Span) {
	pt.mu.Lock()
	pt.spans = append(pt.spans, s)
	pt.mu.Unlock()
}

// Explain implements core.ExplainSink, collecting the allocator's audit
// records alongside the spans. Safe for concurrent use; nil no-ops.
func (pt *PeriodTrace) Explain(e core.NodeExplain) {
	if pt == nil {
		return
	}
	pt.mu.Lock()
	pt.explains = append(pt.explains, e)
	pt.mu.Unlock()
}

// ExplainSink returns pt as a core.ExplainSink, or a nil interface when
// pt is nil — keeping the allocator on its explain-free path, since a
// non-nil interface holding a nil pointer would not.
func (pt *PeriodTrace) ExplainSink() core.ExplainSink {
	if pt == nil {
		return nil
	}
	return pt
}

// ImportExplains appends explain records produced elsewhere (a rack's
// local allocation, shipped back in the RPC response).
func (pt *PeriodTrace) ImportExplains(es []core.NodeExplain) {
	if pt == nil || len(es) == 0 {
		return
	}
	pt.mu.Lock()
	pt.explains = append(pt.explains, es...)
	pt.mu.Unlock()
}

// Explains returns a copy of the explain records collected so far.
func (pt *PeriodTrace) Explains() []core.NodeExplain {
	if pt == nil {
		return nil
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	out := make([]core.NodeExplain, len(pt.explains))
	copy(out, pt.explains)
	return out
}

// ActiveSpan is an in-flight span. All methods no-op on nil, so call
// sites never need to guard on whether tracing is enabled.
type ActiveSpan struct {
	pt   *PeriodTrace
	mu   sync.Mutex
	span Span
	done bool
}

// ID returns the span's ID ("" on nil), for parenting child spans.
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.span.SpanID
}

// AddRetry counts one transport retry against the span.
func (s *ActiveSpan) AddRetry() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.span.Retries++
	s.mu.Unlock()
}

// End closes the span, tagging it with err (nil for success), and records
// it into the trace. End is idempotent; only the first call records.
func (s *ActiveSpan) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.span.Duration = time.Since(s.span.Start)
	if err != nil {
		s.span.Error = err.Error()
	}
	sp := s.span
	s.mu.Unlock()
	s.pt.add(sp)
}

// Context plumbing: the trace and the current span travel through
// context.Context, so local (in-process) RPC clients share the room's
// PeriodTrace while TCP clients serialize a TraceContext instead.

type traceKey struct{}
type spanKey struct{}
type parentKey struct{}

// ContextWithSpan returns ctx carrying the trace and the given span as
// the current one. A nil trace returns ctx unchanged.
func ContextWithSpan(ctx context.Context, pt *PeriodTrace, span *ActiveSpan) context.Context {
	if pt == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, traceKey{}, pt)
	return context.WithValue(ctx, spanKey{}, span)
}

// ContextWithRemote returns ctx carrying pt and the remote parent span ID
// new spans should nest under — the span on the originating side of the
// transport. A nil trace returns ctx unchanged.
func ContextWithRemote(ctx context.Context, pt *PeriodTrace, parentID string) context.Context {
	if pt == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, traceKey{}, pt)
	return context.WithValue(ctx, parentKey{}, parentID)
}

// ParentIDFrom returns the span ID new spans on ctx should parent under:
// the current local span when one is active, else the remote parent ID
// ("" when ctx carries neither).
func ParentIDFrom(ctx context.Context) string {
	if s := SpanFrom(ctx); s != nil {
		return s.ID()
	}
	p, _ := ctx.Value(parentKey{}).(string)
	return p
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *PeriodTrace {
	pt, _ := ctx.Value(traceKey{}).(*PeriodTrace)
	return pt
}

// SpanFrom returns the current span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *ActiveSpan {
	s, _ := ctx.Value(spanKey{}).(*ActiveSpan)
	return s
}

// WireContext extracts the TraceContext a transport should put on the
// wire for the current ctx, or nil when tracing is off.
func WireContext(ctx context.Context) *TraceContext {
	pt := TraceFrom(ctx)
	if pt == nil {
		return nil
	}
	return &TraceContext{TraceID: pt.traceID, ParentID: SpanFrom(ctx).ID()}
}
