package controlplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// The wire protocol carries only metric summaries and budgets — a few
// hundred bytes per rack per control period — matching the paper's
// observation that worker communication is "on the order of milliseconds".
// One codec speaks it (see codec.go): a length-prefixed binary protocol
// that is allocation-free steady-state and supports delta-encoded gather
// responses. Servers check each connection's preamble before decoding.

// request ops.
const (
	opGather      = "gather"
	opBudget      = "budget"
	opPing        = "ping"
	opBatchGather = "batch-gather"
	opBatchBudget = "batch-budget"
)

// BatchBudget names one rack's budget inside a batched budget push.
type BatchBudget struct {
	Rack   string
	Budget power.Watts
}

// GatherResult is one rack's outcome inside a batched gather.
type GatherResult struct {
	Summary core.Summary
	// Digest is the rack's fleet observability digest, present when the
	// client requested digests and the server's worker produces them.
	Digest *fleetobs.StatDigest
	Err    error
}

type wireRequest struct {
	Op     string
	Budget power.Watts
	// Rack routes a single op to one rack on a multi-rack server (see
	// ServeRacks). Empty selects the server's default worker.
	Rack string
	// BatchRacks (op batch-gather) and BatchBudgets (op batch-budget)
	// multiplex one round trip over many racks of a multi-rack server.
	// Response entries come back in request order.
	BatchRacks   []string
	BatchBudgets []BatchBudget
	// Trace carries the caller's per-period trace context so the rack's
	// spans nest under the room's period root. Absent when tracing is off.
	Trace *flightrec.TraceContext
	// HaveCached marks a gather from a client that still holds the full
	// summaries this connection delivered, making racks eligible for an
	// Unchanged response.
	HaveCached bool
	// WantDigest asks gathers to piggyback a fleet observability digest
	// on the response. Only digest-enabled clients set it.
	WantDigest bool
}

// wireBatchEntry is one rack's slot in a batched response, in request
// order.
type wireBatchEntry struct {
	Rack    string
	OK      bool
	Error   string
	Summary *core.Summary
	// Digest piggybacks the rack's fleet digest on a want-digest gather.
	Digest *fleetobs.StatDigest
	// Unchanged marks a batched gather entry squashed by the server's
	// delta tracker; the client substitutes its cached copy for the rack.
	Unchanged bool
}

type wireResponse struct {
	OK      bool
	Error   string
	Summary *core.Summary
	// Digest piggybacks the responding worker's fleet digest on a
	// want-digest gather, adding zero extra RPCs to the period.
	Digest *fleetobs.StatDigest
	// Unchanged marks a gather response whose summary stayed within the
	// server's deadband of the last full summary sent on this connection;
	// the client substitutes its cached copy.
	Unchanged bool
	// Batch carries per-rack outcomes of a batch op, in request order.
	Batch []wireBatchEntry
	// Spans and Explains ship the rack-side trace back to the caller;
	// populated only when the request carried a trace context.
	Spans    []flightrec.Span
	Explains []core.NodeExplain
}

// RackServer exposes one or more rack-facing workers over TCP. A server
// built with ServeRack hosts a single RackWorker and speaks the
// historical single-rack protocol; ServeRacks hosts many workers behind
// one listener, routed by the request's rack field and reachable in bulk
// through the batch ops.
type RackServer struct {
	workers  map[string]RackClient
	def      RackClient // target of un-routed single ops; nil if ambiguous
	listener net.Listener
	met      rpcMetrics
	deadband power.Watts // delta deadband; < 0 disables delta responses

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ServeRack starts serving the worker on the given address (e.g.
// "127.0.0.1:0"). It returns once the listener is bound; connections are
// handled on background goroutines until Close.
func ServeRack(worker *RackWorker, addr string, opts ...Option) (*RackServer, error) {
	if worker == nil {
		return nil, errors.New("controlplane: nil worker")
	}
	return serveWorkers(map[string]RackClient{worker.ID(): worker}, worker, addr, opts)
}

// ServeRacks starts one TCP server hosting every worker in the map, keyed
// by rack ID. Anything satisfying RackClient can be hosted — RackWorkers
// and Aggregators alike — which is how a hierarchy tier shards many
// workers behind few listeners. Single ops route via the request's rack
// field (an empty rack targets the sole worker, or fails when several are
// hosted); the batch ops serve many racks in one round trip.
func ServeRacks(workers map[string]RackClient, addr string, opts ...Option) (*RackServer, error) {
	if len(workers) == 0 {
		return nil, errors.New("controlplane: no workers to serve")
	}
	var def RackClient
	if len(workers) == 1 {
		for _, w := range workers {
			def = w
		}
	}
	owned := make(map[string]RackClient, len(workers))
	for id, w := range workers {
		if w == nil {
			return nil, fmt.Errorf("controlplane: nil worker for rack %q", id)
		}
		owned[id] = w
	}
	return serveWorkers(owned, def, addr, opts)
}

func serveWorkers(workers map[string]RackClient, def RackClient, addr string, opts []Option) (*RackServer, error) {
	o := buildOptions(opts)
	if err := checkWireCodec(o.wireCodec); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("controlplane: listen: %w", err)
	}
	s := &RackServer{
		workers:  workers,
		def:      def,
		listener: ln,
		met:      newRPCMetrics(o.reg, "server"),
		deadband: o.deltaDeadband,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *RackServer) Addr() string { return s.listener.Addr().String() }

// Close stops the listener and all connections.
func (s *RackServer) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *RackServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *RackServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.met.openConns.Inc()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.met.openConns.Dec()
	}()
	counted := countConn(conn, s.met.bytesIn, s.met.bytesOut)
	cdc, err := newServerCodec(bufio.NewReader(counted), counted)
	if err != nil {
		var pe *protocolError
		if errors.As(err, &pe) {
			s.met.protocolErrors.Inc()
		}
		return
	}
	cdc.digBytes = s.met.digestBytes
	var delta *deltaTracker
	if s.deadband >= 0 {
		delta = &deltaTracker{deadband: s.deadband}
	}
	var req wireRequest
	var batchScratch []wireBatchEntry
	for {
		var t0 time.Time
		if s.met.enabled {
			t0 = time.Now()
		}
		if err := cdc.ReadRequest(&req); err != nil {
			return // connection closed or garbage
		}
		if s.met.enabled {
			s.met.codecDec.ObserveSince(t0)
		}
		start := time.Now()
		resp := s.handle(req, batchScratch[:0])
		if cap(resp.Batch) > cap(batchScratch) {
			batchScratch = resp.Batch[:0]
		}
		if delta.squash(&req, &resp) {
			s.met.deltaHits.Inc()
		}
		if n := delta.squashBatch(&req, &resp); n > 0 {
			s.met.deltaHits.Add(float64(n))
		}
		s.met.observe(req.Op, start, !resp.OK)
		if s.met.enabled {
			t0 = time.Now()
		}
		if err := cdc.WriteResponse(&resp); err != nil {
			return
		}
		if s.met.enabled {
			s.met.codecEnc.ObserveSince(t0)
		}
	}
}

// countingConn feeds transport byte counters; a nil counter (telemetry
// off) makes Add a no-op, so the wrapper is always safe to install.
type countingConn struct {
	net.Conn
	in, out *telemetry.Counter
}

func countConn(c net.Conn, in, out *telemetry.Counter) net.Conn {
	if in == nil && out == nil {
		return c
	}
	return &countingConn{Conn: c, in: in, out: out}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(float64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(float64(n))
	return n, err
}

func (s *RackServer) handle(req wireRequest, batchScratch []wireBatchEntry) wireResponse {
	ctx := context.Background()
	// Continue the caller's trace: the worker's spans adopt the remote
	// trace ID and parent, and travel back in the response.
	var pt *flightrec.PeriodTrace
	if req.Trace != nil {
		pt = flightrec.NewRemoteTrace(req.Trace)
		ctx = flightrec.ContextWithRemote(ctx, pt, req.Trace.ParentID)
	}
	resp := s.dispatch(ctx, req, batchScratch)
	if pt != nil {
		resp.Spans = pt.Spans()
		resp.Explains = pt.Explains()
	}
	return resp
}

// route resolves the worker a single op targets. An empty rack selects
// the default worker — only defined on single-worker servers, preserving
// the historical protocol.
func (s *RackServer) route(rack string) (RackClient, error) {
	if rack == "" {
		if s.def == nil {
			return nil, fmt.Errorf("server hosts %d racks; request names none", len(s.workers))
		}
		return s.def, nil
	}
	w, ok := s.workers[rack]
	if !ok {
		return nil, fmt.Errorf("unknown rack %q", rack)
	}
	return w, nil
}

func (s *RackServer) dispatch(ctx context.Context, req wireRequest, batchScratch []wireBatchEntry) wireResponse {
	switch req.Op {
	case opPing:
		return wireResponse{OK: true}
	case opGather:
		w, err := s.route(req.Rack)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		summary, dig, err := gatherMaybeDigest(ctx, w, req.WantDigest)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true, Summary: &summary, Digest: dig}
	case opBudget:
		w, err := s.route(req.Rack)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		if err := w.ApplyBudget(ctx, req.Budget); err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true}
	case opBatchGather:
		if len(req.BatchRacks) == 0 {
			return wireResponse{Error: "batch-gather with no racks"}
		}
		s.met.noteBatch(len(req.BatchRacks))
		entries := batchScratch
		for _, rack := range req.BatchRacks {
			e := wireBatchEntry{Rack: rack}
			w, ok := s.workers[rack]
			if !ok {
				e.Error = fmt.Sprintf("unknown rack %q", rack)
			} else if summary, dig, err := gatherMaybeDigest(ctx, w, req.WantDigest); err != nil {
				e.Error = err.Error()
			} else {
				e.OK = true
				s := summary
				e.Summary = &s
				e.Digest = dig
			}
			entries = append(entries, e)
		}
		return wireResponse{OK: true, Batch: entries}
	case opBatchBudget:
		if len(req.BatchBudgets) == 0 {
			return wireResponse{Error: "batch-budget with no racks"}
		}
		s.met.noteBatch(len(req.BatchBudgets))
		entries := batchScratch
		for _, bb := range req.BatchBudgets {
			e := wireBatchEntry{Rack: bb.Rack}
			w, ok := s.workers[bb.Rack]
			if !ok {
				e.Error = fmt.Sprintf("unknown rack %q", bb.Rack)
			} else if err := w.ApplyBudget(ctx, bb.Budget); err != nil {
				e.Error = err.Error()
			} else {
				e.OK = true
			}
			entries = append(entries, e)
		}
		return wireResponse{OK: true, Batch: entries}
	default:
		return wireResponse{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// ErrClientClosed is returned by every TCPClient method after Close: a
// closed client never re-dials, so shutting one down is terminal.
var ErrClientClosed = errors.New("controlplane: rack client closed")

// serverError is an application-level failure reported by the rack server
// (as opposed to a transport failure). It is never retried: the server
// handled the request and said no.
type serverError struct{ msg string }

func (e *serverError) Error() string { return e.msg }

// protocolError is a malformed-but-delivered response: the bytes arrived
// but violate the protocol (for example OK with neither a summary nor a
// valid Unchanged marker). The stream can no longer be trusted, so the
// connection is reset and the attempt retried over a fresh one.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return "controlplane: protocol error: " + e.msg }

// TCPClient is a RackClient that talks to a RackServer. It maintains one
// connection, re-dialing on failure, retries transport failures a bounded
// number of times with doubling backoff, and serializes requests (the room
// worker issues one request at a time per rack).
//
// Two locks split request serialization from connection state: reqMu is
// held for the whole round trip (including dial, I/O, and retry backoff),
// while mu guards only the closed flag, the live connection, and the delta
// cache. Close takes just mu, so it closes the live connection immediately
// — the in-flight decode then fails fast with ErrClientClosed instead of
// waiting out the attempt timeout.
type TCPClient struct {
	addr    string
	timeout time.Duration
	retries int
	backoff time.Duration
	// codecErr is set when WithWireCodec named something other than
	// CodecBinary; every dial then fails with it.
	codecErr error
	// wantDigest asks every gather on this client to piggyback a fleet
	// digest. Off by default so existing deployments' byte streams (and
	// pinned wire-shape tests) are untouched; WithDigests(true) enables it.
	wantDigest bool
	met        rpcMetrics

	reqMu sync.Mutex // serializes round trips; never taken by Close

	// pushMu guards pushC, a lazily created client whose connection
	// carries only budget pushes. Keeping pushes off the gather stream
	// means a pipelined period's push wave never head-of-line-blocks the
	// next gather wave on this strict request-response protocol.
	pushMu sync.Mutex
	pushC  *TCPClient

	mu     sync.Mutex // guards everything below
	closed bool
	conn   net.Conn
	cdc    *binaryCodec
	// cached holds the last full summary decoded on the live connection
	// per rack ("" for un-routed gathers). Entries are replaced wholesale
	// (never mutated), so summaries handed out stay valid after eviction.
	cached map[string]*core.Summary
	// cachedDig mirrors cached for fleet digests: the server only
	// squashes a digest-bearing gather when the digest also sat within
	// the deadband, so the cached copy is a faithful substitute.
	cachedDig map[string]*fleetobs.StatDigest
}

// DialRack creates a client for the rack server at addr. timeout bounds
// each request attempt; zero selects 2 s (comfortably inside the paper's
// 8 s control period). Retry behavior follows WithRPCRetry (default: 2
// retries starting at 25 ms backoff). The client speaks the binary codec.
func DialRack(addr string, timeout time.Duration, opts ...Option) *TCPClient {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	o := buildOptions(opts)
	return &TCPClient{
		addr:       addr,
		timeout:    timeout,
		retries:    o.rpcRetries,
		backoff:    o.rpcRetryBackoff,
		codecErr:   checkWireCodec(o.wireCodec),
		wantDigest: o.digests != nil && *o.digests,
		met:        newRPCMetrics(o.reg, "client"),
	}
}

// Close tears down the connection and marks the client terminally closed:
// subsequent requests fail with ErrClientClosed instead of re-dialing, and
// an in-flight request fails fast as its read is unblocked. Closing an
// already-closed client is a no-op.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	var err error
	if !c.closed {
		c.closed = true
		if c.conn != nil {
			err = c.conn.Close()
			c.dropConnLocked()
		}
	}
	c.mu.Unlock()

	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	if c.pushC != nil {
		c.pushC.Close()
	}
	return err
}

// pushChannel returns the dedicated budget-push client, creating it on
// first use. It shares this client's address, options, and metrics but
// dials its own connection; the server is stateless per connection for
// budget ops, so pushes and gathers interleave freely across the pair.
func (c *TCPClient) pushChannel() (*TCPClient, error) {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClientClosed
	}
	if c.pushC == nil {
		c.pushC = &TCPClient{
			addr: c.addr, timeout: c.timeout, retries: c.retries,
			backoff: c.backoff, codecErr: c.codecErr,
			wantDigest: c.wantDigest, met: c.met,
		}
	}
	return c.pushC, nil
}

// dropConnLocked forgets the live connection (already closed or being
// closed) and invalidates the per-connection delta cache.
func (c *TCPClient) dropConnLocked() {
	if c.conn == nil {
		return
	}
	c.conn = nil
	c.cdc = nil
	c.cached = nil
	c.cachedDig = nil
	c.met.openConns.Dec()
}

// connFor returns the live connection and codec, dialing outside the lock
// so Close never waits on a slow dial.
func (c *TCPClient) connFor() (net.Conn, *binaryCodec, error) {
	if c.codecErr != nil {
		return nil, nil, c.codecErr
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrClientClosed
	}
	if c.conn != nil {
		conn, cdc := c.conn, c.cdc
		c.mu.Unlock()
		return conn, cdc, nil
	}
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, nil, err
	}
	cdc := newClientCodec(countConn(conn, c.met.bytesIn, c.met.bytesOut))
	cdc.digBytes = c.met.digestBytes

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, nil, ErrClientClosed
	}
	// reqMu serializes dialers, so no connection can have appeared.
	c.conn, c.cdc = conn, cdc
	c.cached = nil
	c.cachedDig = nil
	c.met.openConns.Inc()
	return conn, cdc, nil
}

// fault maps an I/O failure on conn to its terminal form: if the client
// was closed meanwhile the failure is reported as ErrClientClosed, else
// the connection is reset so the next attempt re-dials.
func (c *TCPClient) fault(conn net.Conn, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if c.conn == conn {
		conn.Close()
		c.dropConnLocked()
	}
	return err
}

// protocolFault records a malformed-but-delivered response and resets the
// connection: a desynced stream must not poison subsequent requests.
func (c *TCPClient) protocolFault(conn net.Conn, msg string) error {
	c.met.protocolErrors.Inc()
	return c.fault(conn, error(&protocolError{msg: msg}))
}

func (c *TCPClient) roundTrip(ctx context.Context, req wireRequest) (wireResponse, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	start := time.Now()
	var resp wireResponse
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = c.attempt(ctx, req)
		if err == nil || attempt >= c.retries || !retryable(err) {
			break
		}
		if !sleepCtx(ctx, backoffDelay(c.backoff, attempt)) {
			break
		}
		c.met.retries.Inc()
		flightrec.SpanFrom(ctx).AddRetry()
	}
	c.met.observe(req.Op, start, err != nil)
	// A response that made it back carries the rack's side of the trace —
	// merge it even when the server reported an application-level error.
	if pt := flightrec.TraceFrom(ctx); pt != nil {
		pt.Import(resp.Spans)
		pt.ImportExplains(resp.Explains)
	}
	return resp, err
}

// attempt performs one round trip. All I/O happens outside mu, so Close
// can always reach the live connection and unblock it.
func (c *TCPClient) attempt(ctx context.Context, req wireRequest) (wireResponse, error) {
	if err := ctx.Err(); err != nil {
		return wireResponse{}, err
	}
	conn, cdc, err := c.connFor()
	if err != nil {
		return wireResponse{}, err
	}
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	if req.Op == opGather || req.Op == opBatchGather {
		c.mu.Lock()
		req.HaveCached = len(c.cached) > 0 && c.conn == conn
		c.mu.Unlock()
	}
	var t0 time.Time
	if c.met.enabled {
		t0 = time.Now()
	}
	if err := cdc.WriteRequest(&req); err != nil {
		return wireResponse{}, c.fault(conn, err)
	}
	if c.met.enabled {
		c.met.codecEnc.ObserveSince(t0)
		t0 = time.Now()
	}
	var resp wireResponse
	if err := cdc.ReadResponse(&resp); err != nil {
		return wireResponse{}, c.fault(conn, err)
	}
	if c.met.enabled {
		c.met.codecDec.ObserveSince(t0)
	}
	if resp.OK {
		switch req.Op {
		case opGather:
			if err := c.finishGather(conn, req.Rack, &resp); err != nil {
				return wireResponse{}, err
			}
		case opBatchGather:
			if err := c.finishBatchGather(conn, req.BatchRacks, &resp); err != nil {
				return wireResponse{}, err
			}
		case opBatchBudget:
			if err := c.checkBatchShape(conn, len(req.BatchBudgets), &resp); err != nil {
				return wireResponse{}, err
			}
			for i := range resp.Batch {
				if resp.Batch[i].Rack != req.BatchBudgets[i].Rack {
					return wireResponse{}, c.protocolFault(conn, "batch response entry out of order")
				}
			}
		}
	}
	if !resp.OK {
		return resp, &serverError{msg: resp.Error}
	}
	return resp, nil
}

// finishGather validates a successful gather response and maintains the
// delta cache: full summaries are cached for later Unchanged
// substitution, Unchanged responses are resolved from the cache, and
// malformed combinations (OK with neither, or both) are protocol faults
// that reset the connection.
func (c *TCPClient) finishGather(conn net.Conn, rack string, resp *wireResponse) error {
	c.mu.Lock()
	switch {
	case resp.Unchanged && resp.Summary == nil:
		if s := c.cached[rack]; s != nil && c.conn == conn {
			resp.Summary = s
			resp.Digest = c.cachedDig[rack]
			c.met.deltaHits.Inc()
			c.mu.Unlock()
			return nil
		}
		c.mu.Unlock()
		return c.protocolFault(conn, "unchanged gather but no cached summary")
	case !resp.Unchanged && resp.Summary != nil:
		// Cache the full summary for this connection. Cache entries are
		// replaced wholesale (never mutated in place), so earlier copies
		// handed to the room worker's proxies stay valid.
		c.cacheLocked(conn, rack, resp.Summary, resp.Digest)
		c.mu.Unlock()
		return nil
	default:
		c.mu.Unlock()
		return c.protocolFault(conn, "gather response with OK but no usable summary")
	}
}

// cacheLocked stores a freshly decoded full summary (and its digest, when
// one rode along) in the live connection's delta cache.
func (c *TCPClient) cacheLocked(conn net.Conn, rack string, s *core.Summary, dig *fleetobs.StatDigest) {
	if c.conn != conn {
		return
	}
	if c.cached == nil {
		c.cached = make(map[string]*core.Summary)
	}
	c.cached[rack] = s
	if dig != nil {
		if c.cachedDig == nil {
			c.cachedDig = make(map[string]*fleetobs.StatDigest)
		}
		c.cachedDig[rack] = dig
	} else {
		delete(c.cachedDig, rack)
	}
}

// checkBatchShape validates that a batch response covers exactly the
// requested racks; anything else is a framing-level lie and resets the
// connection.
func (c *TCPClient) checkBatchShape(conn net.Conn, want int, resp *wireResponse) error {
	if len(resp.Batch) != want {
		return c.protocolFault(conn, fmt.Sprintf("batch response has %d entries, want %d", len(resp.Batch), want))
	}
	return nil
}

// finishBatchGather validates a batched gather response entry-by-entry
// and maintains the per-rack delta cache, mirroring finishGather.
func (c *TCPClient) finishBatchGather(conn net.Conn, racks []string, resp *wireResponse) error {
	if err := c.checkBatchShape(conn, len(racks), resp); err != nil {
		return err
	}
	c.mu.Lock()
	for i := range resp.Batch {
		e := &resp.Batch[i]
		if e.Rack != racks[i] {
			c.mu.Unlock()
			return c.protocolFault(conn, "batch response entry out of order")
		}
		if !e.OK {
			continue
		}
		switch {
		case e.Unchanged && e.Summary == nil:
			if s := c.cached[e.Rack]; s != nil && c.conn == conn {
				e.Summary = s
				e.Digest = c.cachedDig[e.Rack]
				c.met.deltaHits.Inc()
				continue
			}
			c.mu.Unlock()
			return c.protocolFault(conn, "unchanged batch gather but no cached summary")
		case !e.Unchanged && e.Summary != nil:
			c.cacheLocked(conn, e.Rack, e.Summary, e.Digest)
		default:
			c.mu.Unlock()
			return c.protocolFault(conn, "batch gather entry with OK but no usable summary")
		}
	}
	c.mu.Unlock()
	return nil
}

// retryable reports whether a failed attempt is worth repeating: transport
// failures are (the next attempt re-dials, and protocol faults resync the
// delta stream on the way), closed clients, dead contexts, and
// application-level rejections are not.
func retryable(err error) bool {
	if errors.Is(err, ErrClientClosed) || errors.Is(err, errWireCodec) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *serverError
	return !errors.As(err, &se)
}

// backoffDelay is the pause before retry attempt+1: base doubling per
// attempt, capped at one second.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := base << attempt
	if d > time.Second || d <= 0 {
		d = time.Second
	}
	return d
}

// sleepCtx sleeps for d unless the context ends first; it reports whether
// the full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Gather implements RackClient.
func (c *TCPClient) Gather(ctx context.Context) (core.Summary, error) {
	s, _, err := c.GatherDigest(ctx)
	return s, err
}

// GatherDigest gathers the rack's summary plus, when this client was
// dialed with WithDigests(true) and the remote worker produces them, its
// fleet observability digest — piggybacked on the same round trip, never
// an extra RPC. The digest is nil when digests are off or unsupported
// remotely.
func (c *TCPClient) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	resp, err := c.roundTrip(ctx, wireRequest{Op: opGather, WantDigest: c.wantDigest, Trace: flightrec.WireContext(ctx)})
	if err != nil {
		return core.Summary{}, nil, err
	}
	if resp.Summary == nil {
		// finishGather guarantees a summary on success; this guards the
		// invariant if it is ever violated.
		return core.Summary{}, nil, &protocolError{msg: "gather response missing summary"}
	}
	return *resp.Summary, resp.Digest, nil
}

// ApplyBudget implements RackClient. Budget pushes ride the dedicated
// push channel (see pushChannel).
func (c *TCPClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	pc, err := c.pushChannel()
	if err != nil {
		return err
	}
	_, err = pc.roundTrip(ctx, wireRequest{Op: opBudget, Budget: b, Trace: flightrec.WireContext(ctx)})
	return err
}

// Ping checks liveness of the rack server.
func (c *TCPClient) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, wireRequest{Op: opPing, Trace: flightrec.WireContext(ctx)})
	return err
}

// GatherBatch collects summaries for many racks of a multi-rack server in
// one round trip, writing per-rack outcomes into out (len(out) must equal
// len(racks)). The returned error covers transport-level failure of the
// whole batch; per-rack application errors land in out[i].Err.
func (c *TCPClient) GatherBatch(ctx context.Context, racks []string, out []GatherResult) error {
	if len(out) != len(racks) {
		return fmt.Errorf("controlplane: batch gather wants %d result slots, got %d", len(racks), len(out))
	}
	if len(racks) == 0 {
		return nil
	}
	c.met.noteBatch(len(racks))
	resp, err := c.roundTrip(ctx, wireRequest{Op: opBatchGather, BatchRacks: racks, WantDigest: c.wantDigest, Trace: flightrec.WireContext(ctx)})
	if err != nil {
		return err
	}
	// finishBatchGather validated shape, order, and per-entry summaries.
	for i := range resp.Batch {
		e := &resp.Batch[i]
		if !e.OK {
			out[i] = GatherResult{Err: &serverError{msg: e.Error}}
			continue
		}
		out[i] = GatherResult{Summary: *e.Summary, Digest: e.Digest}
	}
	return nil
}

// ApplyBudgetBatch pushes many racks' budgets to a multi-rack server in
// one round trip, writing per-rack outcomes into out (len(out) must equal
// len(budgets)). The returned error covers transport-level failure of the
// whole batch.
func (c *TCPClient) ApplyBudgetBatch(ctx context.Context, budgets []BatchBudget, out []error) error {
	if len(out) != len(budgets) {
		return fmt.Errorf("controlplane: batch budget wants %d result slots, got %d", len(budgets), len(out))
	}
	if len(budgets) == 0 {
		return nil
	}
	c.met.noteBatch(len(budgets))
	pc, err := c.pushChannel()
	if err != nil {
		return err
	}
	resp, err := pc.roundTrip(ctx, wireRequest{Op: opBatchBudget, BatchBudgets: budgets, Trace: flightrec.WireContext(ctx)})
	if err != nil {
		return err
	}
	for i := range resp.Batch {
		e := &resp.Batch[i]
		if !e.OK {
			out[i] = &serverError{msg: e.Error}
		} else {
			out[i] = nil
		}
	}
	return nil
}

// RackHandle is a RackClient view of one rack hosted on a multi-rack
// server, sharing its TCPClient's connection. Handles from the same
// client advertise themselves to the fan-out engine, which coalesces
// their gathers and pushes into batch frames — one RPC per server instead
// of one per rack.
type RackHandle struct {
	c    *TCPClient
	rack string
}

// Rack returns a RackClient view of one rack hosted on the multi-rack
// server this client is connected to.
func (c *TCPClient) Rack(id string) *RackHandle { return &RackHandle{c: c, rack: id} }

// Gather implements RackClient with a routed single-rack gather.
func (h *RackHandle) Gather(ctx context.Context) (core.Summary, error) {
	s, _, err := h.GatherDigest(ctx)
	return s, err
}

// GatherDigest mirrors TCPClient.GatherDigest for one rack of a
// multi-rack server.
func (h *RackHandle) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	resp, err := h.c.roundTrip(ctx, wireRequest{Op: opGather, Rack: h.rack, WantDigest: h.c.wantDigest, Trace: flightrec.WireContext(ctx)})
	if err != nil {
		return core.Summary{}, nil, err
	}
	if resp.Summary == nil {
		return core.Summary{}, nil, &protocolError{msg: "gather response missing summary"}
	}
	return *resp.Summary, resp.Digest, nil
}

// ApplyBudget implements RackClient with a routed single-rack push on the
// dedicated push channel.
func (h *RackHandle) ApplyBudget(ctx context.Context, b power.Watts) error {
	pc, err := h.c.pushChannel()
	if err != nil {
		return err
	}
	_, err = pc.roundTrip(ctx, wireRequest{Op: opBudget, Budget: b, Rack: h.rack, Trace: flightrec.WireContext(ctx)})
	return err
}

// batchTarget implements batchEndpoint.
func (h *RackHandle) batchTarget() (batcher, string, string) { return h.c, h.rack, h.c.addr }
