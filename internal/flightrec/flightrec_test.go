package flightrec

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"capmaestro/internal/core"
)

func TestNilSafety(t *testing.T) {
	var pt *PeriodTrace
	var rec *Recorder
	sp := pt.StartSpan("x", "n", "")
	sp.AddRetry()
	sp.End(nil)
	if sp.ID() != "" || pt.TraceID() != "" || pt.Spans() != nil {
		t.Error("nil trace must be inert")
	}
	pt.Import([]Span{{Name: "x"}})
	if rec.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	rec.Add(PeriodRecord{})
	if _, ok := rec.Get(0); ok {
		t.Error("nil recorder returned a record")
	}
	if rec.Records() != nil || rec.Summaries() == nil && false {
		t.Error("nil recorder returned records")
	}
	ctx := ContextWithSpan(context.Background(), nil, nil)
	if TraceFrom(ctx) != nil || SpanFrom(ctx) != nil || WireContext(ctx) != nil {
		t.Error("nil trace leaked into context")
	}
}

func TestSpanTree(t *testing.T) {
	pt := NewPeriodTrace()
	if len(pt.TraceID()) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", pt.TraceID())
	}
	root := pt.StartSpan("period", "room", "")
	child := pt.StartSpan("gather", "room", root.ID())
	child.AddRetry()
	child.AddRetry()
	child.End(errors.New("boom"))
	root.End(nil)
	root.End(nil) // idempotent

	spans := pt.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != pt.TraceID() {
			t.Errorf("span %s trace %q != %q", s.Name, s.TraceID, pt.TraceID())
		}
	}
	g := byName["gather"]
	if g.ParentID != byName["period"].SpanID {
		t.Error("child not parented to root")
	}
	if g.Retries != 2 || g.Error != "boom" {
		t.Errorf("child = %+v, want 2 retries and error", g)
	}
	if byName["period"].ParentID != "" {
		t.Error("root has a parent")
	}
}

func TestRemoteTraceAndImport(t *testing.T) {
	pt := NewPeriodTrace()
	root := pt.StartSpan("period", "room", "")
	wire := WireContext(ContextWithSpan(context.Background(), pt, root))
	if wire.TraceID != pt.TraceID() || wire.ParentID != root.ID() {
		t.Fatalf("wire context %+v", wire)
	}

	remote := NewRemoteTrace(wire)
	if remote.TraceID() != pt.TraceID() {
		t.Fatal("remote trace did not adopt the incoming trace ID")
	}
	rsp := remote.StartSpan("rack.gather", "rack-1", wire.ParentID)
	rsp.End(nil)

	pt.Import(remote.Spans())
	root.End(nil)
	spans := pt.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans after import, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Name == "rack.gather" && s.ParentID != root.ID() {
			t.Error("imported rack span lost its parent")
		}
	}

	if NewRemoteTrace(nil).TraceID() == "" {
		t.Error("nil wire context should still start a usable trace")
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		id := r.Add(PeriodRecord{TraceID: "t", Label: "room"})
		if id != uint64(i) {
			t.Fatalf("record %d got ID %d", i, id)
		}
	}
	recs := r.Records()
	if len(recs) != 3 || recs[0].ID != 2 || recs[2].ID != 4 {
		t.Fatalf("ring holds %+v, want IDs 2..4", recs)
	}
	if _, ok := r.Get(1); ok {
		t.Error("evicted record still retrievable")
	}
	if rec, ok := r.Get(3); !ok || rec.ID != 3 {
		t.Errorf("Get(3) = %+v, %v", rec, ok)
	}
	sums := r.Summaries()
	if len(sums) != 3 || sums[0].ID != 4 {
		t.Fatalf("summaries %+v, want newest (4) first", sums)
	}
	if NewRecorder(0).ring == nil || len(NewRecorder(-1).ring) != DefaultBufferSize {
		t.Error("non-positive size should use the default")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRecorder(4)
	pt := NewPeriodTrace()
	root := pt.StartSpan("period", "room", "")
	rack := pt.StartSpan("rpc.gather", "rack-1", root.ID())
	rack.End(nil)
	root.End(nil)
	r.Add(PeriodRecord{
		TraceID: pt.TraceID(), Start: time.Now(), Duration: time.Millisecond,
		Label: "room", Spans: pt.Spans(),
	})
	h := r.Handler()

	get := func(path string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code, w.Body.String()
	}

	code, body := get("/debug/periods")
	if code != 200 {
		t.Fatalf("/debug/periods -> %d", code)
	}
	var sums []PeriodSummary
	if err := json.Unmarshal([]byte(body), &sums); err != nil || len(sums) != 1 || sums[0].Spans != 2 {
		t.Fatalf("summaries body %s (err %v)", body, err)
	}

	code, body = get("/debug/periods/0")
	if code != 200 || !strings.Contains(body, "rpc.gather") {
		t.Fatalf("/debug/periods/0 -> %d: %s", code, body)
	}
	if code, _ := get("/debug/periods/99"); code != 404 {
		t.Errorf("missing period -> %d, want 404", code)
	}
	if code, _ := get("/debug/periods/xyz"); code != 400 {
		t.Errorf("bad period id -> %d, want 400", code)
	}

	code, body = get("/debug/trace.json")
	if code != 200 {
		t.Fatalf("/debug/trace.json -> %d", code)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &ct); err != nil {
		t.Fatalf("trace.json not valid JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range ct.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
		}
	}
	// Two threads (room, rack-1) and two timed spans.
	if meta != 2 || complete != 2 {
		t.Errorf("trace.json has %d metadata + %d complete events, want 2+2: %s", meta, complete, body)
	}
}

// TestIDsDistinct: trace and span IDs, drawn from one process-wide
// source, are 16 lowercase hex digits and never repeat — across traces,
// across spans of one trace, and between the two.
func TestIDsDistinct(t *testing.T) {
	seen := make(map[string]bool, 10000)
	add := func(id string) {
		t.Helper()
		if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("ID %q is not 16 lowercase hex digits", id)
		}
		if seen[id] {
			t.Fatalf("ID %q repeated after %d IDs", id, len(seen))
		}
		seen[id] = true
	}
	for len(seen) < 10000 {
		pt := NewPeriodTrace()
		add(pt.TraceID())
		for i := 0; i < 9; i++ {
			add(pt.StartSpan("s", "n", "").ID())
		}
	}
}

// TestSpareExplains: once the ring is full, SpareExplains evicts the
// oldest record and hands its explain list back for reuse, and no reader
// ever sees the reuse: Get and Records return copies.
func TestSpareExplains(t *testing.T) {
	r := NewRecorder(2)
	list := func(id string) []core.NodeExplain {
		return []core.NodeExplain{{NodeID: id, Granted: 1}, {NodeID: id + "-leaf", Leaf: true}}
	}
	first := list("a")
	for i, ex := range [][]core.NodeExplain{first, list("b")} {
		if spare := r.SpareExplains(); spare != nil {
			t.Fatalf("SpareExplains with %d of 2 records held = %v, want nil", i, spare)
		}
		r.Add(PeriodRecord{Explains: ex})
	}
	got, _ := r.Get(0)
	recs := r.Records()
	got.Explains[0].NodeID = "edited"
	if again, _ := r.Get(0); again.Explains[0].NodeID != "a" {
		t.Fatalf("editing Get's copy reached the ring: %+v", again.Explains)
	}

	spare := r.SpareExplains()
	if len(spare) != 0 || cap(spare) != cap(first) || &spare[:1][0] != &first[0] {
		t.Fatalf("spare len %d cap %d, want the evicted record's list emptied", len(spare), cap(spare))
	}
	if _, ok := r.Get(0); ok || len(r.Records()) != 1 {
		t.Fatalf("record 0 still held after SpareExplains: %+v", r.Records())
	}
	r.Add(PeriodRecord{Explains: append(spare, list("c")...)})
	if recs[0].Explains[0].NodeID != "a" || recs[1].Explains[0].NodeID != "b" {
		t.Fatalf("reusing the spare list changed an earlier Records copy: %+v", recs)
	}
	if held := r.Records(); len(held) != 2 || held[0].ID != 1 || held[1].Explains[0].NodeID != "c" {
		t.Fatalf("ring holds %+v, want records 1 and 2 (c)", held)
	}
}
