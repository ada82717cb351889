package controlplane

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
)

// codecRequestFixtures and codecResponseFixtures return one of every
// request and response shape the wire protocol carries, so round-trip
// tests cover the full surface.
func codecRequestFixtures() map[string]wireRequest {
	return map[string]wireRequest{
		"ping":           {Op: opPing},
		"gather":         {Op: opGather},
		"gather-cached":  {Op: opGather, HaveCached: true},
		"budget":         {Op: opBudget, Budget: 1234.5},
		"budget-zero":    {Op: opBudget, Budget: 0},
		"gather-traced":  {Op: opGather, Trace: &flightrec.TraceContext{TraceID: "trace-1", ParentID: "span-7"}},
		"budget-traced":  {Op: opBudget, Budget: 987.25, Trace: &flightrec.TraceContext{TraceID: "t", ParentID: ""}},
		"traced-cached":  {Op: opGather, HaveCached: true, Trace: &flightrec.TraceContext{TraceID: "abc123", ParentID: "def456"}},
		"budget-decimal": {Op: opBudget, Budget: 0.0625},
		"gather-digest":  {Op: opGather, WantDigest: true},
		"digest-cached":  {Op: opGather, WantDigest: true, HaveCached: true},
	}
}

// codecDigestFixture builds a fleet digest exercising every optional
// section of the digest wire format: histogram, outliers, level rows
// (with and without latency histograms), and the worst-rack ID.
func codecDigestFixture() *fleetobs.StatDigest {
	d := &fleetobs.StatDigest{
		Racks:             3,
		PowerW:            2900,
		RequestW:          3100,
		CapMinW:           1740,
		BudgetW:           3480,
		HeadroomW:         580,
		WorstHeadroomW:    -60,
		WorstHeadroomRack: "rack-2",
		ViolationW:        60,
		ViolatingRacks:    1,
	}
	d.Headroom.Observe(fleetobs.HeadroomBounds, -0.0625)
	d.Headroom.Observe(fleetobs.HeadroomBounds, 0.25)
	d.Headroom.Observe(fleetobs.HeadroomBounds, 0.5)
	d.AddOutlier(fleetobs.Outlier{Rack: "rack-2", Reason: fleetobs.ReasonCapExceeded,
		Score: 1.0625, PowerW: 1020, HeadroomW: -60})
	d.AddOutlier(fleetobs.Outlier{Rack: "rack-9", Reason: fleetobs.ReasonStale,
		Score: 4, StalePeriods: 2})
	lvl1 := fleetobs.LevelStats{Level: 1, Workers: 3, GatherErrors: 1, Stale: 1, Held: 1}
	lvl1.GatherLatency.Observe(fleetobs.LatencyBounds, 0.001953125)
	d.AddLevel(&lvl1)
	d.AddLevel(&fleetobs.LevelStats{Level: 2, Workers: 1})
	return d
}

func codecResponseFixtures() map[string]wireResponse {
	multi := core.NewSummary()
	multi.Constraint = 1600
	multi.SetLevel(2, 100, 250, 250)
	multi.SetLevel(0, 540, 900, 860)
	multi.SetLevel(-1, 10, 20, 15)
	empty := core.NewSummary()
	empty.Constraint = 42.5
	start := time.Unix(0, 1722000000123456789)
	bareDig := &fleetobs.StatDigest{Racks: 1, PowerW: 950, RequestW: 1000,
		CapMinW: 570, HeadroomW: 210, WorstHeadroomW: 210}
	spans := []flightrec.Span{
		{TraceID: "t1", SpanID: "s1", Name: "rack.gather", Node: "rack0",
			Start: start, Duration: 1500 * time.Microsecond},
		{TraceID: "t1", SpanID: "s2", ParentID: "s1", Name: "rack.apply", Node: "rack0",
			Start: start.Add(time.Millisecond), Duration: 42, Retries: 3, Error: "late"},
	}
	batch := []wireBatchEntry{
		{Rack: "rack0", OK: true, Summary: &multi, Digest: bareDig},
		{Rack: "rack1", OK: true, Unchanged: true},
		{Rack: "rack2", Error: "rack on fire"},
	}
	return map[string]wireResponse{
		"ok":            {OK: true},
		"batch":         {OK: true, Batch: batch},
		"batch-traced":  {OK: true, Batch: batch, Spans: spans},
		"error":         {Error: "rack on fire"},
		"summary":       {OK: true, Summary: &multi},
		"summary-empty": {OK: true, Summary: &empty},
		"unchanged":     {OK: true, Unchanged: true},
		"digest":        {OK: true, Summary: &multi, Digest: codecDigestFixture()},
		"digest-bare":   {OK: true, Summary: &empty, Digest: bareDig},
		"traced": {
			OK:      true,
			Summary: &multi,
			Spans:   spans,
			Explains: []core.NodeExplain{
				{NodeID: "rack0", Priority: 1, Demand: 900, CapMin: 540, Request: 860,
					Constraint: 1600, Granted: 860, Phase: "fulfill"},
				{NodeID: "s0-ps", SupplyID: "s0-ps", ServerID: "s0", Leaf: true, Priority: 0,
					Demand: 450, CapMin: 270, Request: 430, Constraint: 490, Granted: 430,
					Clamp: "cap_max", Phase: "assign"},
			},
		},
	}
}

// codecPair builds a codec over an in-memory buffer: what it writes, it
// reads back (both directions share the frame layout, so a single buffer
// suffices for round-trips).
func codecPair() (*binaryCodec, *bytes.Buffer) {
	buf := &bytes.Buffer{}
	return newBinaryCodec(bufio.NewReader(buf), buf), buf
}

func requestsEquivalent(a, b wireRequest) bool {
	if a.Op != b.Op || a.Budget != b.Budget || a.HaveCached != b.HaveCached ||
		a.WantDigest != b.WantDigest {
		return false
	}
	switch {
	case a.Trace == nil && b.Trace == nil:
		return true
	case a.Trace == nil || b.Trace == nil:
		return false
	default:
		return *a.Trace == *b.Trace
	}
}

func summariesEquivalent(a, b *core.Summary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Constraint != b.Constraint {
		return false
	}
	al, bl := a.LevelMetrics(), b.LevelMetrics()
	if len(al) != len(bl) {
		return false
	}
	for i := range al {
		if al[i] != bl[i] {
			return false
		}
	}
	return true
}

func responsesEquivalent(a, b wireResponse) bool {
	if a.OK != b.OK || a.Error != b.Error || a.Unchanged != b.Unchanged {
		return false
	}
	if !summariesEquivalent(a.Summary, b.Summary) {
		return false
	}
	if !reflect.DeepEqual(a.Digest, b.Digest) {
		return false
	}
	if len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		ea, eb := a.Batch[i], b.Batch[i]
		if ea.Rack != eb.Rack || ea.OK != eb.OK || ea.Error != eb.Error || ea.Unchanged != eb.Unchanged ||
			!summariesEquivalent(ea.Summary, eb.Summary) || !reflect.DeepEqual(ea.Digest, eb.Digest) {
			return false
		}
	}
	if len(a.Spans) != len(b.Spans) {
		return false
	}
	for i := range a.Spans {
		sa, sb := a.Spans[i], b.Spans[i]
		// Compare instants, not time.Time internals: a decoded time is
		// the same instant without the encoder's monotonic reading.
		if !sa.Start.Equal(sb.Start) {
			return false
		}
		sa.Start, sb.Start = time.Time{}, time.Time{}
		if sa != sb {
			return false
		}
	}
	return reflect.DeepEqual(a.Explains, b.Explains)
}

// TestCodecRoundTrip round-trips every fixture through the codec: the
// struct the bytes decode to must be the struct that was encoded.
func TestCodecRoundTrip(t *testing.T) {
	for name, req := range codecRequestFixtures() {
		t.Run("request/"+name, func(t *testing.T) {
			c, _ := codecPair()
			if err := c.WriteRequest(&req); err != nil {
				t.Fatalf("encode: %v", err)
			}
			var got wireRequest
			if err := c.ReadRequest(&got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !requestsEquivalent(req, got) {
				t.Fatalf("round trip drifted:\n in %+v\nout %+v", req, got)
			}
		})
	}
	for name, resp := range codecResponseFixtures() {
		t.Run("response/"+name, func(t *testing.T) {
			c, _ := codecPair()
			if err := c.WriteResponse(&resp); err != nil {
				t.Fatalf("encode: %v", err)
			}
			var got wireResponse
			if err := c.ReadResponse(&got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !responsesEquivalent(resp, got) {
				t.Fatalf("round trip drifted:\n in %+v\nout %+v", resp, got)
			}
		})
	}
}

// TestCodecReencodeStable pins that decoding loses nothing the encoder
// wrote: for every fixture, re-encoding the decoded frame gives the first
// encoding's bytes exactly. The equivalence checks of TestCodecRoundTrip
// ignore span start offsets; byte equality does not.
func TestCodecReencodeStable(t *testing.T) {
	for name, req := range codecRequestFixtures() {
		t.Run("request/"+name, func(t *testing.T) {
			c, buf := codecPair()
			if err := c.WriteRequest(&req); err != nil {
				t.Fatalf("encode: %v", err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			var got wireRequest
			if err := c.ReadRequest(&got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := c.WriteRequest(&got); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("re-encoding drifted:\n% x\n% x", first, buf.Bytes())
			}
		})
	}
	for name, resp := range codecResponseFixtures() {
		t.Run("response/"+name, func(t *testing.T) {
			c, buf := codecPair()
			if err := c.WriteResponse(&resp); err != nil {
				t.Fatalf("encode: %v", err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			var got wireResponse
			if err := c.ReadResponse(&got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := c.WriteResponse(&got); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("re-encoding drifted:\n% x\n% x", first, buf.Bytes())
			}
		})
	}
}

// TestServerCodecPreamble pins newServerCodec's check of a connection's
// opening bytes. A wrong magic byte or version is a protocolError (the
// server counts those); a stream that ends before the two preamble bytes
// is a plain read error; a valid preamble is consumed, and the frame
// behind it decodes.
func TestServerCodecPreamble(t *testing.T) {
	cases := []struct {
		name      string
		open      []byte
		wantProto bool // protocolError, counted by the server
		wantOK    bool // codec built; the ping behind the preamble decodes
	}{
		{"binary", []byte{binMagic, binVersion}, false, true},
		{"json-request-line", []byte(`{"op":"gather"}` + "\n"), true, false},
		{"http-request", []byte("GET / HTTP/1.1\r\n\r\n"), true, false},
		{"zero-byte", []byte{0, binVersion}, true, false},
		{"wrong-version", []byte{binMagic, binVersion + 1}, true, false},
		{"empty", nil, false, false},
		{"magic-only", []byte{binMagic}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]byte(nil), tc.open...)
			if tc.wantOK {
				body := &bytes.Buffer{}
				if err := newBinaryCodec(bufio.NewReader(body), body).WriteRequest(&wireRequest{Op: opPing}); err != nil {
					t.Fatal(err)
				}
				in = append(in, body.Bytes()...)
			}
			cdc, err := newServerCodec(bufio.NewReader(bytes.NewReader(in)), &bytes.Buffer{})
			var pe *protocolError
			if got := errors.As(err, &pe); got != tc.wantProto {
				t.Fatalf("err %v: protocolError %t, want %t", err, got, tc.wantProto)
			}
			if !tc.wantOK {
				if err == nil {
					t.Fatalf("opening % x accepted", tc.open)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid preamble refused: %v", err)
			}
			var req wireRequest
			if err := cdc.ReadRequest(&req); err != nil || req.Op != opPing {
				t.Fatalf("frame behind the preamble: op %v, err %v", req.Op, err)
			}
		})
	}
}

// TestCodecResponseFlagLattice round-trips a response carrying every
// subset of the optional sections {batch, spans, explains, digest}
// through the codec: encode → decode must give the response back, and
// re-encoding what was decoded must give the first encoding's bytes. The
// binary reader once consumed spans and explains ahead of batch entries
// while the writer emitted them behind, so a traced batch frame — the
// flight recorder over batched endpoints — never decoded.
func TestCodecResponseFlagLattice(t *testing.T) {
	full := codecResponseFixtures()
	const (
		hasBatch = 1 << iota
		hasSpans
		hasExplains
		hasDigest
		subsets
	)
	for mask := 0; mask < subsets; mask++ {
		resp := wireResponse{OK: true}
		if mask&hasBatch != 0 {
			resp.Batch = full["batch"].Batch
		}
		if mask&hasSpans != 0 {
			resp.Spans = full["traced"].Spans
		}
		if mask&hasExplains != 0 {
			resp.Explains = full["traced"].Explains
		}
		if mask&hasDigest != 0 {
			resp.Digest = full["digest"].Digest
		}
		t.Run(fmt.Sprintf("batch=%t,spans=%t,explains=%t,digest=%t",
			mask&hasBatch != 0, mask&hasSpans != 0, mask&hasExplains != 0, mask&hasDigest != 0), func(t *testing.T) {
			c, buf := codecPair()
			if err := c.WriteResponse(&resp); err != nil {
				t.Fatalf("encode: %v", err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			var got wireResponse
			if err := c.ReadResponse(&got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !responsesEquivalent(resp, got) {
				t.Fatalf("round trip drifted:\n in %+v\nout %+v", resp, got)
			}
			if err := c.WriteResponse(&got); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("re-encoding drifted:\n% x\n% x", first, buf.Bytes())
			}
		})
	}
}

// TestCodecSequencedFrames pins stream behavior: multiple frames written
// back-to-back decode in order, and the binary client preamble is emitted
// exactly once.
func TestCodecSequencedFrames(t *testing.T) {
	buf := &bytes.Buffer{}
	cli := newClientCodec(buf)
	reqs := []wireRequest{{Op: opPing}, {Op: opGather, HaveCached: true}, {Op: opBudget, Budget: 7}}
	for i := range reqs {
		if err := cli.WriteRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	if raw[0] != binMagic || raw[1] != binVersion {
		t.Fatalf("stream does not open with preamble: % x", raw[:2])
	}
	if n := bytes.Count(raw, []byte{binMagic, binVersion}); n > 1 {
		// The preamble bytes could legitimately recur inside payloads;
		// this fixture has none, so any recurrence is a duplicate preamble.
		t.Fatalf("preamble appears %d times", n)
	}
	br := bufio.NewReader(bytes.NewReader(raw[2:]))
	srv := newBinaryCodec(br, &bytes.Buffer{})
	for i := range reqs {
		var got wireRequest
		if err := srv.ReadRequest(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !requestsEquivalent(reqs[i], got) {
			t.Fatalf("frame %d drifted: in %+v out %+v", i, reqs[i], got)
		}
	}
}

// TestBinaryDecodeRejectsMalformed feeds the binary decoder truncated,
// oversized, and corrupted frames: every one must return an error (never
// panic) and leave nothing decoded.
func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	// A valid response frame to mutate.
	c, buf := codecPair()
	resp := codecResponseFixtures()["traced"]
	if err := c.WriteResponse(&resp); err != nil {
		t.Fatal(err)
	}
	valid := append([]byte(nil), buf.Bytes()...)

	cases := map[string][]byte{
		"empty-frame":      {0, 0, 0, 0},
		"short-header":     {5, 0},
		"oversized-length": {0xff, 0xff, 0xff, 0xff, 1, 1},
		"truncated-body":   valid[:len(valid)-3],
		"bad-version":      append([]byte{2, 0, 0, 0}, 99, 0),
		"trailing-bytes":   append([]byte{10, 0, 0, 0, binVersion, respFlagOK}, make([]byte, 8)...),
		"forged-count": append([]byte{12, 0, 0, 0, binVersion, respFlagSummary},
			0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff), // claims 65535 levels in 0 bytes
		"digest-bad-version": digestFrame(func(w *binWriter) {
			w.u8(9)
			w.u8(0)
			digestScalars(w)
		}),
		"digest-unknown-flags": digestFrame(func(w *binWriter) {
			w.u8(digVersion)
			w.u8(0x80)
		}),
		"digest-empty-worst-rack": digestFrame(func(w *binWriter) {
			w.u8(digVersion)
			w.u8(digFlagWorst)
			digestScalars(w)
			w.str("")
		}),
		"digest-hist-overflow": digestFrame(func(w *binWriter) {
			w.u8(digVersion)
			w.u8(digFlagHist)
			digestScalars(w)
			w.u8(200) // claims 200 nonzero buckets, max is MergeHistBuckets
		}),
		"digest-hist-bad-index": digestFrame(func(w *binWriter) {
			w.u8(digVersion)
			w.u8(digFlagHist)
			digestScalars(w)
			w.u8(1)
			w.u8(50) // bucket index out of range
			w.u64(1)
			w.f64(0)
		}),
		"digest-forged-outliers": digestFrame(func(w *binWriter) {
			w.u8(digVersion)
			w.u8(digFlagOutliers)
			digestScalars(w)
			w.u8(255) // claims 255 outliers in 0 bytes
		}),
		"digest-level-bad-hist-byte": digestFrame(func(w *binWriter) {
			w.u8(digVersion)
			w.u8(digFlagLevels)
			digestScalars(w)
			w.u8(1) // one level row
			for i := 0; i < 5; i++ {
				w.u32(0)
			}
			w.u8(7) // hist-present byte must be 0 or 1
		}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			bc := newBinaryCodec(bufio.NewReader(bytes.NewReader(data)), &bytes.Buffer{})
			var got wireResponse
			if err := bc.ReadResponse(&got); err == nil {
				t.Fatalf("malformed frame decoded: %+v", got)
			}
			if got.Summary != nil || got.Spans != nil || got.Digest != nil || got.OK {
				t.Fatalf("failed decode left state: %+v", got)
			}
		})
	}
}

// digestFrame wraps hand-built digest payload bytes in a well-formed
// response frame carrying only the digest flag, so decode failures are
// attributable to the digest section alone.
func digestFrame(payload func(w *binWriter)) []byte {
	var w binWriter
	w.u8(binVersion)
	w.u8(respFlagDigest)
	payload(&w)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(w.b)))
	return append(frame, w.b...)
}

// digestScalars writes the fixed digest header that precedes every
// optional section: rack count, seven watt fields, violating-rack count.
func digestScalars(w *binWriter) {
	w.u32(1)
	for i := 0; i < 7; i++ {
		w.f64(100)
	}
	w.u32(0)
}

// TestBinaryEncodeRejectsOversizedFields pins the encoder-side limits:
// strings beyond u16 length fail loudly instead of corrupting the frame.
func TestBinaryEncodeRejectsOversizedFields(t *testing.T) {
	c, _ := codecPair()
	req := wireRequest{Op: opGather, Trace: &flightrec.TraceContext{TraceID: strings.Repeat("x", 1<<17)}}
	if err := c.WriteRequest(&req); err == nil {
		t.Fatal("oversized trace ID encoded without error")
	}
	resp := wireResponse{Error: strings.Repeat("e", 1<<17)}
	if err := c.WriteResponse(&resp); err == nil {
		t.Fatal("oversized error string encoded without error")
	}
}

// TestDeltaTracker pins the server-side squash rules: exact-match and
// in-deadband summaries squash only when the client advertises a cache,
// breaches and level-set changes force a full frame and rearm the
// tracker.
func TestDeltaTracker(t *testing.T) {
	mk := func(request power.Watts) *core.Summary {
		s := core.NewSummary()
		s.Constraint = 1000
		s.SetLevel(0, 200, 400, request)
		return &s
	}
	d := &deltaTracker{deadband: 5}

	// First gather: nothing sent yet, must be full even with a cache.
	resp := wireResponse{OK: true, Summary: mk(300)}
	if d.squash(&wireRequest{Op: opGather, HaveCached: true}, &resp) {
		t.Fatal("squashed before any full summary was sent")
	}
	// Within deadband + cache: squash.
	resp = wireResponse{OK: true, Summary: mk(304)}
	if !d.squash(&wireRequest{Op: opGather, HaveCached: true}, &resp) {
		t.Fatal("in-deadband gather not squashed")
	}
	if !resp.Unchanged || resp.Summary != nil {
		t.Fatalf("squash left %+v", resp)
	}
	// Within deadband but no client cache: full frame.
	resp = wireResponse{OK: true, Summary: mk(301)}
	if d.squash(&wireRequest{Op: opGather}, &resp) {
		t.Fatal("squashed for a client without a cache")
	}
	// Deadband breach (relative to last FULL summary, 301): full frame.
	resp = wireResponse{OK: true, Summary: mk(307)}
	if d.squash(&wireRequest{Op: opGather, HaveCached: true}, &resp) {
		t.Fatal("deadband breach squashed")
	}
	// The breach rearmed the tracker at 307.
	resp = wireResponse{OK: true, Summary: mk(309)}
	if !d.squash(&wireRequest{Op: opGather, HaveCached: true}, &resp) {
		t.Fatal("tracker did not rearm on the full frame")
	}
	// Level-set change: never squashed.
	changed := mk(309)
	changed.SetLevel(1, 1, 2, 3)
	resp = wireResponse{OK: true, Summary: changed}
	if d.squash(&wireRequest{Op: opGather, HaveCached: true}, &resp) {
		t.Fatal("level-set change squashed")
	}
	// Non-gather ops and failed responses pass through untouched.
	resp = wireResponse{OK: true}
	if d.squash(&wireRequest{Op: opPing}, &resp) {
		t.Fatal("ping squashed")
	}
	if (*deltaTracker)(nil).squash(&wireRequest{Op: opGather, HaveCached: true}, &wireResponse{OK: true, Summary: mk(309)}) {
		t.Fatal("nil tracker squashed")
	}
}
