package controlplane

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// CodecBinary names the rack transport's wire codec, the only one there
// is. WithWireCodec accepts it (or "", the default) and nothing else.
const CodecBinary = "binary"

// errWireCodec marks a WithWireCodec name other than CodecBinary. It is
// terminal: ServeRack and ServeRacks refuse to start, and a client fails
// its first dial without retrying.
var errWireCodec = errors.New("controlplane: unknown wire codec")

// checkWireCodec validates a WithWireCodec value.
func checkWireCodec(name string) error {
	if name == "" || name == CodecBinary {
		return nil
	}
	return fmt.Errorf("%w %q (binary is the only codec)", errWireCodec, name)
}

// The wire protocol: a connection opens with a two-byte preamble
// [binMagic, binVersion], which the server checks before it decodes
// anything, then carries length-prefixed frames:
//
//	[u32 LE payload length][payload]
//
// Every payload starts with a version byte, so frame layout can evolve
// per-message without renegotiating the connection. All integers are
// little-endian; floats are IEEE-754 bits; strings are u16-length-prefixed
// UTF-8. Decoders enforce maxFrameLen before allocating and reject frames
// with trailing bytes, so malformed or adversarial input fails with an
// error and bounded memory, never a panic.
const (
	binMagic   = 0xC5 // first preamble byte
	binVersion = 1

	// maxFrameLen bounds a single frame's payload. A 1024-rack summary
	// with traces is a few KiB; 1 MiB leaves three orders of magnitude of
	// headroom while keeping a forged length header harmless.
	maxFrameLen = 1 << 20
)

// request op bytes (binary encoding of the op strings).
const (
	opByteGather      = 1
	opByteBudget      = 2
	opBytePing        = 3
	opByteBatchGather = 4
	opByteBatchBudget = 5
)

// request flag bits.
const (
	reqFlagTrace      = 1 << 0 // trace context follows
	reqFlagHaveCached = 1 << 1 // gather: client holds the last full summaries
	reqFlagRack       = 1 << 2 // single op routed to a named rack
	reqFlagWantDigest = 1 << 3 // gather: attach a fleet observability digest
)

// response flag bits.
const (
	respFlagOK        = 1 << 0
	respFlagUnchanged = 1 << 1 // gather: summary unchanged, none attached
	respFlagSummary   = 1 << 2
	respFlagError     = 1 << 3
	respFlagSpans     = 1 << 4
	respFlagExplains  = 1 << 5
	respFlagBatch     = 1 << 6 // per-rack batch entries follow
	respFlagDigest    = 1 << 7 // fleet observability digest follows
)

// batch entry flag bits (one flags byte per entry).
const (
	entFlagOK        = 1 << 0
	entFlagUnchanged = 1 << 1
	entFlagSummary   = 1 << 2
	entFlagError     = 1 << 3
	entFlagDigest    = 1 << 4
)

func opToByte(op string) (byte, error) {
	switch op {
	case opGather:
		return opByteGather, nil
	case opBudget:
		return opByteBudget, nil
	case opPing:
		return opBytePing, nil
	case opBatchGather:
		return opByteBatchGather, nil
	case opBatchBudget:
		return opByteBatchBudget, nil
	default:
		return 0, fmt.Errorf("controlplane: binary codec cannot encode op %q", op)
	}
}

func opFromByte(b byte) (string, error) {
	switch b {
	case opByteGather:
		return opGather, nil
	case opByteBudget:
		return opBudget, nil
	case opBytePing:
		return opPing, nil
	case opByteBatchGather:
		return opBatchGather, nil
	case opByteBatchBudget:
		return opBatchBudget, nil
	default:
		return "", fmt.Errorf("controlplane: binary frame has unknown op byte %d", b)
	}
}

// binaryCodec encodes and decodes one side of a rack transport
// connection. Encode assembles each frame in a reusable buffer and issues
// one Write; decode reads each frame into a reusable buffer and parses in
// place. Steady state (buffers grown, no trace attached) allocates
// nothing on either path except fresh Summary levels on full-summary
// frames, which must outlive the codec (the room worker retains them in
// rack proxies). A codec is bound to a single connection and is not safe
// for concurrent use (the transport serializes requests per connection).
type binaryCodec struct {
	r *bufio.Reader
	w io.Writer

	wbuf []byte // frame assembly for writes
	rbuf []byte // frame storage for reads

	// batch is the reusable decode buffer for batched response entries;
	// callers consume resp.Batch before the next read on this connection.
	batch []wireBatchEntry

	// sendPreamble marks a client codec that still owes the connection
	// preamble; it is prepended to the first frame's Write.
	sendPreamble bool

	// digBytes, when set, accumulates the encoded size of every fleet
	// digest written or read on this connection — the observability
	// plane's wire overhead, reported separately from total RPC bytes.
	digBytes *telemetry.Counter
}

func newBinaryCodec(r *bufio.Reader, w io.Writer) *binaryCodec {
	return &binaryCodec{r: r, w: w}
}

// binWriter appends primitive fields to a frame under construction,
// latching the first error.
type binWriter struct {
	b   []byte
	err error
}

func (w *binWriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *binWriter) u16(v uint16)  { w.b = append(w.b, byte(v), byte(v>>8)) }
func (w *binWriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *binWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *binWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *binWriter) i64(v int64)   { w.u64(uint64(v)) }

func (w *binWriter) str(s string) {
	if len(s) > math.MaxUint16 {
		if w.err == nil {
			w.err = fmt.Errorf("controlplane: string field of %d bytes exceeds binary codec limit", len(s))
		}
		return
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// count writes a u16 element count, erroring when n does not fit.
func (w *binWriter) count(n int) {
	if n > math.MaxUint16 {
		if w.err == nil {
			w.err = fmt.Errorf("controlplane: %d elements exceed binary codec count limit", n)
		}
		n = 0
	}
	w.u16(uint16(n))
}

// binReader consumes primitive fields from a decoded frame with bounds
// checking, latching the first error; getters return zero values after an
// error so decode loops stay simple.
type binReader struct {
	b   []byte
	off int
	err error
}

var errFrameTruncated = errors.New("controlplane: binary frame truncated")

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errFrameTruncated
	}
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) take(n int) []byte {
	if r.err != nil || r.remaining() < n {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *binReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *binReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *binReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *binReader) i64() int64   { return int64(r.u64()) }

func (r *binReader) str() string {
	n := int(r.u16())
	if b := r.take(n); len(b) > 0 {
		return string(b)
	}
	return ""
}

// finish verifies the frame was consumed exactly: trailing bytes mean a
// framing desync or a forged message and are treated as protocol errors.
func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("controlplane: binary frame has %d trailing bytes", r.remaining())
	}
	return nil
}

// beginFrame starts a new outgoing frame in the reusable buffer,
// reserving the length header (and the preamble when still owed).
func (c *binaryCodec) beginFrame() binWriter {
	b := c.wbuf[:0]
	if c.sendPreamble {
		b = append(b, binMagic, binVersion)
	}
	b = append(b, 0, 0, 0, 0) // length header, patched by endFrame
	return binWriter{b: b}
}

// endFrame patches the length header and writes the frame in one call.
func (c *binaryCodec) endFrame(w binWriter) error {
	if w.err != nil {
		return w.err
	}
	hdr := 0
	if c.sendPreamble {
		hdr = 2
	}
	payload := len(w.b) - hdr - 4
	if payload > maxFrameLen {
		return fmt.Errorf("controlplane: frame payload %d exceeds limit %d", payload, maxFrameLen)
	}
	binary.LittleEndian.PutUint32(w.b[hdr:], uint32(payload))
	c.wbuf = w.b
	if _, err := c.w.Write(w.b); err != nil {
		return err
	}
	c.sendPreamble = false
	return nil
}

// readFrame reads one length-prefixed frame into the reusable buffer.
func (c *binaryCodec) readFrame() (binReader, error) {
	hdr, err := c.r.Peek(4)
	if err != nil {
		return binReader{}, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 2 || n > maxFrameLen {
		return binReader{}, fmt.Errorf("controlplane: binary frame length %d outside [2, %d]", n, maxFrameLen)
	}
	if _, err := c.r.Discard(4); err != nil {
		return binReader{}, err
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return binReader{}, err
	}
	return binReader{b: buf}, nil
}

func (c *binaryCodec) WriteRequest(req *wireRequest) error {
	op, err := opToByte(req.Op)
	if err != nil {
		return err
	}
	w := c.beginFrame()
	w.u8(binVersion)
	w.u8(op)
	var flags byte
	if req.Trace != nil {
		flags |= reqFlagTrace
	}
	if req.HaveCached {
		flags |= reqFlagHaveCached
	}
	if req.Rack != "" {
		flags |= reqFlagRack
	}
	if req.WantDigest {
		flags |= reqFlagWantDigest
	}
	w.u8(flags)
	if req.Rack != "" {
		w.str(req.Rack)
	}
	switch req.Op {
	case opBudget:
		w.f64(float64(req.Budget))
	case opBatchGather:
		w.count(len(req.BatchRacks))
		for _, rack := range req.BatchRacks {
			w.str(rack)
		}
	case opBatchBudget:
		w.count(len(req.BatchBudgets))
		for i := range req.BatchBudgets {
			w.str(req.BatchBudgets[i].Rack)
			w.f64(float64(req.BatchBudgets[i].Budget))
		}
	}
	if req.Trace != nil {
		w.str(req.Trace.TraceID)
		w.str(req.Trace.ParentID)
	}
	return c.endFrame(w)
}

func (c *binaryCodec) ReadRequest(req *wireRequest) error {
	*req = wireRequest{}
	r, err := c.readFrame()
	if err != nil {
		return err
	}
	if v := r.u8(); r.err == nil && v != binVersion {
		return fmt.Errorf("controlplane: binary frame version %d, want %d", v, binVersion)
	}
	op, opErr := opFromByte(r.u8())
	if r.err == nil && opErr != nil {
		return opErr
	}
	req.Op = op
	flags := r.u8()
	req.HaveCached = flags&reqFlagHaveCached != 0
	req.WantDigest = flags&reqFlagWantDigest != 0
	if flags&reqFlagRack != 0 {
		req.Rack = r.str()
	}
	switch op {
	case opBudget:
		req.Budget = power.Watts(r.f64())
	case opBatchGather:
		n := r.checkCount(int(r.u16()), 2)
		if n > 0 && r.err == nil {
			req.BatchRacks = make([]string, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			rack := r.str()
			if r.err == nil {
				req.BatchRacks = append(req.BatchRacks, rack)
			}
		}
	case opBatchBudget:
		n := r.checkCount(int(r.u16()), 2+8)
		if n > 0 && r.err == nil {
			req.BatchBudgets = make([]BatchBudget, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			bb := BatchBudget{Rack: r.str(), Budget: power.Watts(r.f64())}
			if r.err == nil {
				req.BatchBudgets = append(req.BatchBudgets, bb)
			}
		}
	}
	if flags&reqFlagTrace != 0 {
		tc := &flightrec.TraceContext{TraceID: r.str(), ParentID: r.str()}
		if r.err == nil {
			req.Trace = tc
		}
	}
	return r.finish()
}

func (c *binaryCodec) WriteResponse(resp *wireResponse) error {
	w := c.beginFrame()
	w.u8(binVersion)
	var flags byte
	if resp.OK {
		flags |= respFlagOK
	}
	if resp.Unchanged {
		flags |= respFlagUnchanged
	}
	if resp.Summary != nil {
		flags |= respFlagSummary
	}
	if resp.Error != "" {
		flags |= respFlagError
	}
	if len(resp.Spans) > 0 {
		flags |= respFlagSpans
	}
	if len(resp.Explains) > 0 {
		flags |= respFlagExplains
	}
	if len(resp.Batch) > 0 {
		flags |= respFlagBatch
	}
	if resp.Digest != nil {
		flags |= respFlagDigest
	}
	w.u8(flags)
	if resp.Error != "" {
		w.str(resp.Error)
	}
	if resp.Summary != nil {
		writeSummary(&w, resp.Summary)
	}
	if resp.Digest != nil {
		before := len(w.b)
		writeDigest(&w, resp.Digest)
		c.digBytes.Add(float64(len(w.b) - before))
	}
	if len(resp.Batch) > 0 {
		w.count(len(resp.Batch))
		for i := range resp.Batch {
			e := &resp.Batch[i]
			w.str(e.Rack)
			var ef byte
			if e.OK {
				ef |= entFlagOK
			}
			if e.Unchanged {
				ef |= entFlagUnchanged
			}
			if e.Summary != nil {
				ef |= entFlagSummary
			}
			if e.Error != "" {
				ef |= entFlagError
			}
			if e.Digest != nil {
				ef |= entFlagDigest
			}
			w.u8(ef)
			if e.Error != "" {
				w.str(e.Error)
			}
			if e.Summary != nil {
				writeSummary(&w, e.Summary)
			}
			if e.Digest != nil {
				before := len(w.b)
				writeDigest(&w, e.Digest)
				c.digBytes.Add(float64(len(w.b) - before))
			}
		}
	}
	if len(resp.Spans) > 0 {
		w.count(len(resp.Spans))
		for i := range resp.Spans {
			s := &resp.Spans[i]
			w.str(s.TraceID)
			w.str(s.SpanID)
			w.str(s.ParentID)
			w.str(s.Name)
			w.str(s.Node)
			w.i64(s.Start.UnixNano())
			w.i64(int64(s.Duration))
			w.u32(uint32(s.Retries))
			w.str(s.Error)
		}
	}
	if len(resp.Explains) > 0 {
		w.count(len(resp.Explains))
		for i := range resp.Explains {
			e := &resp.Explains[i]
			w.str(e.NodeID)
			w.str(e.SupplyID)
			w.str(e.ServerID)
			leaf := byte(0)
			if e.Leaf {
				leaf = 1
			}
			w.u8(leaf)
			w.u32(uint32(int32(e.Priority)))
			w.f64(float64(e.Demand))
			w.f64(float64(e.CapMin))
			w.f64(float64(e.Request))
			w.f64(float64(e.Constraint))
			w.f64(float64(e.Granted))
			w.str(string(e.Clamp))
			w.str(string(e.Phase))
		}
	}
	return c.endFrame(w)
}

// minimum encoded sizes, used to bound count fields against the bytes
// actually present before allocating element storage.
const (
	binLevelSize   = 4 + 3*8           // priority + three watt fields
	binSpanSize    = 6*2 + 2*8 + 4     // six empty strings, start, duration, retries
	binExplainSize = 5*2 + 1 + 4 + 5*8 // five empty strings, leaf, priority, five watt fields
	binEntrySize   = 2 + 1             // empty rack string + entry flags
)

// writeSummary appends a summary's binary form: constraint, then the
// priority-level metrics.
func writeSummary(w *binWriter, s *core.Summary) {
	w.f64(float64(s.Constraint))
	levels := s.LevelMetrics()
	w.count(len(levels))
	for i := range levels {
		w.u32(uint32(int32(levels[i].Priority)))
		w.f64(float64(levels[i].CapMin))
		w.f64(float64(levels[i].Demand))
		w.f64(float64(levels[i].Request))
	}
}

// readSummary decodes a summary written by writeSummary into a fresh
// Summary (callers retain decoded summaries beyond the codec's buffers).
func readSummary(r *binReader) *core.Summary {
	var s core.Summary
	s.Constraint = power.Watts(r.f64())
	n := r.checkCount(int(r.u16()), binLevelSize)
	for i := 0; i < n && r.err == nil; i++ {
		p := core.Priority(int32(r.u32()))
		capMin := power.Watts(r.f64())
		demand := power.Watts(r.f64())
		request := power.Watts(r.f64())
		s.SetLevel(p, capMin, demand, request)
	}
	if r.err != nil {
		return nil
	}
	return &s
}

// checkCount rejects element counts that could not possibly fit in the
// remaining frame bytes, so a forged count cannot force a large
// allocation.
func (r *binReader) checkCount(n, minSize int) int {
	if r.err != nil {
		return 0
	}
	if n*minSize > r.remaining() {
		r.fail()
		return 0
	}
	return n
}

// The fleet digest's binary form carries its own version byte (it evolves
// independently of the frame layout) followed by a content-flags byte, so
// empty sections cost nothing on the wire:
//
//	[u8 digVersion][u8 content flags][u32 racks][f64 ×7 watt fields]
//	[u32 violating racks][worst-rack string?][headroom hist?]
//	[outliers?][levels?]
//
// Histograms encode sparsely (u8 nonzero-bucket count, then ascending
// u8 index + u64 count pairs, then the f64 sum) — a single rack's digest
// populates one bucket, so the common case is a handful of bytes.
const (
	digVersion      = 1
	digFlagHist     = 1 << 0
	digFlagOutliers = 1 << 1
	digFlagLevels   = 1 << 2
	digFlagWorst    = 1 << 3

	digFlagsKnown = digFlagHist | digFlagOutliers | digFlagLevels | digFlagWorst
)

// minimum encoded digest element sizes for checkCount.
const (
	binOutlierSize  = 2 + 2 + 3*8 + 4 // two empty strings, score + two watt fields, stale periods
	binDigLevelSize = 5*4 + 1         // five u32 counters + hist-present byte
)

// u32n writes a non-negative int as a u32, erroring when out of range.
func (w *binWriter) u32n(n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		if w.err == nil {
			w.err = fmt.Errorf("controlplane: integer field %d outside binary codec u32 range", n)
		}
		n = 0
	}
	w.u32(uint32(n))
}

// u8count writes a u8 element count, erroring when n does not fit.
func (w *binWriter) u8count(n int) {
	if n > math.MaxUint8 {
		if w.err == nil {
			w.err = fmt.Errorf("controlplane: %d elements exceed binary digest count limit", n)
		}
		n = 0
	}
	w.u8(byte(n))
}

func writeMergeHist(w *binWriter, h *telemetry.MergeHist) {
	nnz := 0
	for _, c := range h.Counts {
		if c != 0 {
			nnz++
		}
	}
	w.u8(byte(nnz))
	for i, c := range h.Counts {
		if c != 0 {
			w.u8(byte(i))
			w.u64(c)
		}
	}
	w.f64(h.Sum)
}

func readMergeHist(r *binReader, h *telemetry.MergeHist) {
	nnz := int(r.u8())
	if r.err == nil && nnz > telemetry.MergeHistBuckets {
		r.err = fmt.Errorf("controlplane: digest histogram has %d buckets, max %d", nnz, telemetry.MergeHistBuckets)
		return
	}
	for i := 0; i < nnz && r.err == nil; i++ {
		idx := int(r.u8())
		c := r.u64()
		if r.err != nil {
			return
		}
		if idx >= telemetry.MergeHistBuckets {
			r.err = fmt.Errorf("controlplane: digest histogram bucket index %d out of range", idx)
			return
		}
		h.Counts[idx] = c
	}
	h.Sum = r.f64()
}

// writeDigest appends a fleet digest's binary form. Content flags are
// derived from the digest itself, so a decode → re-encode round trip is
// canonical regardless of how the encoder's digest was built.
func writeDigest(w *binWriter, d *fleetobs.StatDigest) {
	w.u8(digVersion)
	var flags byte
	if d.Headroom.Count() > 0 {
		flags |= digFlagHist
	}
	if len(d.Outliers) > 0 {
		flags |= digFlagOutliers
	}
	if len(d.Levels) > 0 {
		flags |= digFlagLevels
	}
	if d.WorstHeadroomRack != "" {
		flags |= digFlagWorst
	}
	w.u8(flags)
	w.u32n(d.Racks)
	w.f64(d.PowerW)
	w.f64(d.RequestW)
	w.f64(d.CapMinW)
	w.f64(d.BudgetW)
	w.f64(d.HeadroomW)
	w.f64(d.WorstHeadroomW)
	w.f64(d.ViolationW)
	w.u32n(d.ViolatingRacks)
	if flags&digFlagWorst != 0 {
		w.str(d.WorstHeadroomRack)
	}
	if flags&digFlagHist != 0 {
		writeMergeHist(w, &d.Headroom)
	}
	if flags&digFlagOutliers != 0 {
		w.u8count(len(d.Outliers))
		for i := range d.Outliers {
			o := &d.Outliers[i]
			w.str(o.Rack)
			w.str(o.Reason)
			w.f64(o.Score)
			w.f64(o.PowerW)
			w.f64(o.HeadroomW)
			w.u32n(o.StalePeriods)
		}
	}
	if flags&digFlagLevels != 0 {
		w.u8count(len(d.Levels))
		for i := range d.Levels {
			l := &d.Levels[i]
			w.u32n(l.Level)
			w.u32n(l.Workers)
			w.u32n(l.GatherErrors)
			w.u32n(l.Stale)
			w.u32n(l.Held)
			if l.GatherLatency.Count() > 0 {
				w.u8(1)
				writeMergeHist(w, &l.GatherLatency)
			} else {
				w.u8(0)
			}
		}
	}
}

// readDigest decodes a digest written by writeDigest into a fresh
// StatDigest (callers retain decoded digests beyond the codec's buffers).
// Returns nil after latching a reader error.
func readDigest(r *binReader) *fleetobs.StatDigest {
	if v := r.u8(); r.err == nil && v != digVersion {
		r.err = fmt.Errorf("controlplane: digest version %d, want %d", v, digVersion)
	}
	flags := r.u8()
	if r.err == nil && flags&^byte(digFlagsKnown) != 0 {
		r.err = fmt.Errorf("controlplane: digest has unknown content flags 0x%02x", flags)
	}
	if r.err != nil {
		return nil
	}
	d := &fleetobs.StatDigest{}
	d.Racks = int(r.u32())
	d.PowerW = r.f64()
	d.RequestW = r.f64()
	d.CapMinW = r.f64()
	d.BudgetW = r.f64()
	d.HeadroomW = r.f64()
	d.WorstHeadroomW = r.f64()
	d.ViolationW = r.f64()
	d.ViolatingRacks = int(r.u32())
	if flags&digFlagWorst != 0 {
		d.WorstHeadroomRack = r.str()
		if r.err == nil && d.WorstHeadroomRack == "" {
			r.err = errors.New("controlplane: digest worst-rack flag set with empty rack ID")
		}
	}
	if flags&digFlagHist != 0 {
		readMergeHist(r, &d.Headroom)
	}
	if flags&digFlagOutliers != 0 {
		n := r.checkCount(int(r.u8()), binOutlierSize)
		if n > 0 && r.err == nil {
			d.Outliers = make([]fleetobs.Outlier, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			var o fleetobs.Outlier
			o.Rack = r.str()
			o.Reason = r.str()
			o.Score = r.f64()
			o.PowerW = r.f64()
			o.HeadroomW = r.f64()
			o.StalePeriods = int(r.u32())
			if r.err == nil {
				d.Outliers = append(d.Outliers, o)
			}
		}
	}
	if flags&digFlagLevels != 0 {
		n := r.checkCount(int(r.u8()), binDigLevelSize)
		if n > 0 && r.err == nil {
			d.Levels = make([]fleetobs.LevelStats, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			var l fleetobs.LevelStats
			l.Level = int(r.u32())
			l.Workers = int(r.u32())
			l.GatherErrors = int(r.u32())
			l.Stale = int(r.u32())
			l.Held = int(r.u32())
			switch present := r.u8(); {
			case r.err != nil:
			case present == 1:
				readMergeHist(r, &l.GatherLatency)
			case present != 0:
				r.err = fmt.Errorf("controlplane: digest level hist-present byte %d, want 0 or 1", present)
			}
			if r.err == nil {
				d.Levels = append(d.Levels, l)
			}
		}
	}
	if r.err != nil {
		return nil
	}
	return d
}

func (c *binaryCodec) ReadResponse(resp *wireResponse) error {
	*resp = wireResponse{}
	r, err := c.readFrame()
	if err != nil {
		return err
	}
	if v := r.u8(); r.err == nil && v != binVersion {
		return fmt.Errorf("controlplane: binary frame version %d, want %d", v, binVersion)
	}
	flags := r.u8()
	resp.OK = flags&respFlagOK != 0
	resp.Unchanged = flags&respFlagUnchanged != 0
	if flags&respFlagError != 0 {
		resp.Error = r.str()
	}
	if flags&respFlagSummary != 0 {
		resp.Summary = readSummary(&r)
	}
	if flags&respFlagDigest != 0 {
		before := r.off
		resp.Digest = readDigest(&r)
		c.digBytes.Add(float64(r.off - before))
	}
	// Sections follow in WriteResponse's order: batch, spans, explains.
	if flags&respFlagBatch != 0 {
		n := r.checkCount(int(r.u16()), binEntrySize)
		entries := c.batch[:0]
		for i := 0; i < n && r.err == nil; i++ {
			var e wireBatchEntry
			e.Rack = r.str()
			ef := r.u8()
			e.OK = ef&entFlagOK != 0
			e.Unchanged = ef&entFlagUnchanged != 0
			if ef&entFlagError != 0 {
				e.Error = r.str()
			}
			if ef&entFlagSummary != 0 {
				e.Summary = readSummary(&r)
			}
			if ef&entFlagDigest != 0 {
				before := r.off
				e.Digest = readDigest(&r)
				c.digBytes.Add(float64(r.off - before))
			}
			if r.err == nil {
				entries = append(entries, e)
			}
		}
		if r.err == nil {
			resp.Batch = entries
			c.batch = entries
		}
	}
	if flags&respFlagSpans != 0 {
		n := r.checkCount(int(r.u16()), binSpanSize)
		if n > 0 && r.err == nil {
			resp.Spans = make([]flightrec.Span, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			var s flightrec.Span
			s.TraceID = r.str()
			s.SpanID = r.str()
			s.ParentID = r.str()
			s.Name = r.str()
			s.Node = r.str()
			s.Start = time.Unix(0, r.i64())
			s.Duration = time.Duration(r.i64())
			s.Retries = int(r.u32())
			s.Error = r.str()
			if r.err == nil {
				resp.Spans = append(resp.Spans, s)
			}
		}
	}
	if flags&respFlagExplains != 0 {
		n := r.checkCount(int(r.u16()), binExplainSize)
		if n > 0 && r.err == nil {
			resp.Explains = make([]core.NodeExplain, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			var e core.NodeExplain
			e.NodeID = r.str()
			e.SupplyID = r.str()
			e.ServerID = r.str()
			e.Leaf = r.u8() != 0
			e.Priority = core.Priority(int32(r.u32()))
			e.Demand = power.Watts(r.f64())
			e.CapMin = power.Watts(r.f64())
			e.Request = power.Watts(r.f64())
			e.Constraint = power.Watts(r.f64())
			e.Granted = power.Watts(r.f64())
			e.Clamp = core.Clamp(r.str())
			e.Phase = core.ExplainPhase(r.str())
			if r.err == nil {
				resp.Explains = append(resp.Explains, e)
			}
		}
	}
	if err := r.finish(); err != nil {
		*resp = wireResponse{}
		return err
	}
	return nil
}

// newClientCodec builds the codec a freshly dialed client connection
// speaks; it owes the connection preamble before its first frame.
func newClientCodec(rw io.ReadWriter) *binaryCodec {
	c := newBinaryCodec(bufio.NewReader(rw), rw)
	c.sendPreamble = true
	return c
}

// newServerCodec checks a new server-side connection's preamble before
// anything is decoded: binMagic, then binVersion. Any other opening (an
// old newline-JSON client's '{' included) is a protocolError.
func newServerCodec(br *bufio.Reader, w io.Writer) (*binaryCodec, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] != binMagic {
		return nil, &protocolError{msg: fmt.Sprintf("unrecognized protocol byte 0x%02x", first[0])}
	}
	pre, err := br.Peek(2)
	if err != nil {
		return nil, err
	}
	if pre[1] != binVersion {
		return nil, &protocolError{msg: fmt.Sprintf("binary preamble version %d, want %d", pre[1], binVersion)}
	}
	if _, err := br.Discard(2); err != nil {
		return nil, err
	}
	return newBinaryCodec(br, w), nil
}

// deltaTracker is the server side of delta-encoded gathers: it remembers
// the last full summary sent on this connection — per rack, since a
// multi-rack connection interleaves racks — and squashes a gather
// response (or batch entry) to a few-byte "unchanged" marker while the
// fresh summary stays within the deadband of it. Trackers are
// per-connection, so every reconnect (including each retry, which always
// re-dials) starts from a forced full-summary resync.
type deltaTracker struct {
	deadband power.Watts
	last     map[string]core.Summary // by rack; "" for un-routed gathers
	// lastDig mirrors last for fleet digests on digest-bearing gathers:
	// a response only squashes when the summary AND its digest both sit
	// within the deadband, so the client's cached digest stays a faithful
	// substitute.
	lastDig map[string]*fleetobs.StatDigest
}

// squashable reports whether the rack's fresh summary (and digest, when
// one rides along) may be squashed, updating the tracker's last-sent
// records when not.
func (d *deltaTracker) squashable(haveCached bool, rack string, s *core.Summary, dig *fleetobs.StatDigest) bool {
	if last, ok := d.last[rack]; ok && haveCached && summariesWithin(&last, s, d.deadband) &&
		digestsWithin(d.lastDig[rack], dig, d.deadband) {
		return true
	}
	if d.last == nil {
		d.last = make(map[string]core.Summary)
	}
	d.last[rack] = s.Clone()
	if dig != nil {
		if d.lastDig == nil {
			d.lastDig = make(map[string]*fleetobs.StatDigest)
		}
		d.lastDig[rack] = dig.Clone()
	} else {
		delete(d.lastDig, rack)
	}
	return false
}

// squash rewrites resp in place to an "unchanged" frame when permitted,
// reporting whether it did. The client must have advertised a cached
// summary (drift protection: a client that lost its cache always gets a
// full frame).
func (d *deltaTracker) squash(req *wireRequest, resp *wireResponse) bool {
	if d == nil || req.Op != opGather || !resp.OK || resp.Summary == nil {
		return false
	}
	if d.squashable(req.HaveCached, req.Rack, resp.Summary, resp.Digest) {
		resp.Summary = nil
		resp.Digest = nil
		resp.Unchanged = true
		return true
	}
	return false
}

// squashBatch squashes eligible entries of a batched gather response,
// returning how many it rewrote.
func (d *deltaTracker) squashBatch(req *wireRequest, resp *wireResponse) int {
	if d == nil || req.Op != opBatchGather || !resp.OK {
		return 0
	}
	n := 0
	for i := range resp.Batch {
		e := &resp.Batch[i]
		if !e.OK || e.Summary == nil {
			continue
		}
		if d.squashable(req.HaveCached, e.Rack, e.Summary, e.Digest) {
			e.Summary = nil
			e.Digest = nil
			e.Unchanged = true
			n++
		}
	}
	return n
}

// digestsWithin reports whether a fresh digest b may be represented by the
// last-sent digest a without misleading the fleet rollup: counters and
// identities must match exactly, watt fields within the deadband. Both
// nil (a digest-less gather) is trivially within; a digest appearing or
// disappearing never squashes.
func digestsWithin(a, b *fleetobs.StatDigest, deadband power.Watts) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if deadband < 0 {
		deadband = 0
	}
	db := float64(deadband)
	if a.Racks != b.Racks || a.ViolatingRacks != b.ViolatingRacks ||
		a.WorstHeadroomRack != b.WorstHeadroomRack {
		return false
	}
	if absF(a.PowerW-b.PowerW) > db || absF(a.RequestW-b.RequestW) > db ||
		absF(a.CapMinW-b.CapMinW) > db || absF(a.BudgetW-b.BudgetW) > db ||
		absF(a.HeadroomW-b.HeadroomW) > db || absF(a.WorstHeadroomW-b.WorstHeadroomW) > db ||
		absF(a.ViolationW-b.ViolationW) > db {
		return false
	}
	if a.Headroom != b.Headroom {
		return false
	}
	if len(a.Outliers) != len(b.Outliers) || len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Outliers {
		oa, ob := &a.Outliers[i], &b.Outliers[i]
		if oa.Rack != ob.Rack || oa.Reason != ob.Reason || oa.StalePeriods != ob.StalePeriods ||
			absF(oa.Score-ob.Score) > db || absF(oa.PowerW-ob.PowerW) > db ||
			absF(oa.HeadroomW-ob.HeadroomW) > db {
			return false
		}
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	return true
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// summariesWithin reports whether every metric of b sits within deadband
// of a's. The comparison is against the last summary actually sent (not
// the last observed), so total drift while squashing is bounded by the
// deadband.
func summariesWithin(a, b *core.Summary, deadband power.Watts) bool {
	if deadband < 0 {
		deadband = 0
	}
	if absWatts(a.Constraint-b.Constraint) > deadband {
		return false
	}
	al, bl := a.LevelMetrics(), b.LevelMetrics()
	if len(al) != len(bl) {
		return false
	}
	for i := range al {
		if al[i].Priority != bl[i].Priority ||
			absWatts(al[i].CapMin-bl[i].CapMin) > deadband ||
			absWatts(al[i].Demand-bl[i].Demand) > deadband ||
			absWatts(al[i].Request-bl[i].Request) > deadband {
			return false
		}
	}
	return true
}

func absWatts(w power.Watts) power.Watts {
	if w < 0 {
		return -w
	}
	return w
}
