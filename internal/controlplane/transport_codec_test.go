package controlplane

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/telemetry"
)

// TestTCPClientCloseUnblocksStalledRequest is the regression test for the
// Close-blocking bug: a server that accepts and reads but never responds
// used to pin the client mutex for the whole attempt timeout, so Close
// blocked behind it. With connection state split from request
// serialization, Close must return immediately and the in-flight request
// must fail fast with ErrClientClosed.
func TestTCPClientCloseUnblocksStalledRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	requestSeen := make(chan struct{}, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				// Read the request so the client's write completes, then
				// stall forever: the client blocks in decode.
				buf := make([]byte, 1)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					select {
					case requestSeen <- struct{}{}:
					default:
					}
				}
			}()
		}
	}()

	// A long attempt timeout: if Close waits out the attempt, the test
	// time limit catches it.
	client := DialRack(ln.Addr().String(), 30*time.Second, WithRPCRetry(0, time.Millisecond))
	gatherErr := make(chan error, 1)
	go func() {
		_, err := client.Gather(context.Background())
		gatherErr <- err
	}()
	select {
	case <-requestSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the request")
	}

	closeStart := time.Now()
	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(closeStart); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v behind the stalled request", elapsed)
	}
	select {
	case err := <-gatherErr:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("stalled gather returned %v, want ErrClientClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight gather did not fail fast after Close")
	}
}

// scriptServer answers every request on every connection with the same
// scripted response frame, counting connections — a minimal stand-in for
// a buggy or malicious rack server.
func scriptServer(t *testing.T, response wireResponse) (addr string, conns *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns = &atomic.Int32{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				cdc, err := newServerCodec(bufio.NewReader(conn), conn)
				if err != nil {
					return
				}
				var req wireRequest
				for {
					if err := cdc.ReadRequest(&req); err != nil {
						return
					}
					resp := response
					if err := cdc.WriteResponse(&resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), conns
}

// TestGatherOKWithoutSummaryIsTransportFault is the regression test for
// the malformed-response bug: a gather response claiming OK with no
// summary must be treated as a transport fault — counted in
// protocol_errors, connection reset (each retry arrives on a fresh
// connection), and surfaced as an error instead of a healthy stream.
func TestGatherOKWithoutSummaryIsTransportFault(t *testing.T) {
	addr, conns := scriptServer(t, wireResponse{OK: true})
	reg := telemetry.NewRegistry()
	client := DialRack(addr, time.Second, WithRPCRetry(2, time.Millisecond), WithTelemetry(reg))
	defer client.Close()

	_, err := client.Gather(context.Background())
	if err == nil {
		t.Fatal("malformed gather response reported success")
	}
	var pe *protocolError
	if !errors.As(err, &pe) {
		t.Fatalf("gather returned %v, want a protocol error", err)
	}
	// 1 attempt + 2 retries, each over a fresh connection because every
	// protocol fault resets the stream.
	if got := conns.Load(); got != 3 {
		t.Fatalf("server saw %d connections, want 3 (reset per protocol fault)", got)
	}
	errsVec := reg.CounterVec("capmaestro_rpc_protocol_errors_total", "", "role")
	if got := errsVec.With("client").Value(); got != 3 {
		t.Fatalf("protocol_errors = %v, want 3", got)
	}
	// The client is still usable: a later budget push round-trips fine on
	// a server that answers OK.
	if pingErr := client.Ping(context.Background()); pingErr != nil {
		t.Fatalf("client unusable after protocol faults: %v", pingErr)
	}
}

// TestUnchangedWithoutCacheIsTransportFault covers the other malformed
// combination: an Unchanged gather on a connection that never received a
// full summary has nothing to resolve against and must fault rather than
// fabricate a summary.
func TestUnchangedWithoutCacheIsTransportFault(t *testing.T) {
	addr, _ := scriptServer(t, wireResponse{OK: true, Unchanged: true})
	client := DialRack(addr, time.Second, WithRPCRetry(1, time.Millisecond))
	defer client.Close()
	_, err := client.Gather(context.Background())
	var pe *protocolError
	if !errors.As(err, &pe) {
		t.Fatalf("gather returned %v, want a protocol error", err)
	}
	if !strings.Contains(err.Error(), "cached") {
		t.Fatalf("unexpected protocol error text: %v", err)
	}
}

// TestBinaryDeltaGatherEndToEnd drives a real server/client pair: the
// first gather ships a full summary, repeat gathers of
// an unchanged rack squash to delta frames on both counters, and a severed
// connection forces a full-summary resync before delta resumes.
func TestBinaryDeltaGatherEndToEnd(t *testing.T) {
	worker, err := NewRackWorker("rack0",
		core.NewShifting("rack0", 0, leaf("s0", "S0", 1, 400), leaf("s1", "S1", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := ServeRack(worker, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialRack(srv.Addr(), time.Second, WithTelemetry(reg), WithRPCRetry(2, time.Millisecond))
	defer client.Close()

	deltaVec := reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role")
	clientHits := func() float64 { return deltaVec.With("client").Value() }
	serverHits := func() float64 { return deltaVec.With("server").Value() }

	first, err := client.Gather(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if clientHits() != 0 || serverHits() != 0 {
		t.Fatalf("first gather used the delta path (client %v, server %v)", clientHits(), serverHits())
	}

	// The rack is static, so repeat gathers squash to unchanged frames
	// that resolve to the identical summary.
	for i := 0; i < 3; i++ {
		got, err := client.Gather(context.Background())
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		if !summariesEquivalent(&first, &got) {
			t.Fatalf("delta gather %d drifted:\nfirst %+v\n got  %+v", i, first, got)
		}
	}
	if clientHits() != 3 || serverHits() != 3 {
		t.Fatalf("delta hits client %v server %v, want 3/3", clientHits(), serverHits())
	}

	// Sever the live connection: the next gather reconnects, and the
	// fresh connection must resync with a full frame (no new delta hit).
	client.mu.Lock()
	conn := client.conn
	client.mu.Unlock()
	conn.Close()
	got, err := client.Gather(context.Background())
	if err != nil {
		t.Fatalf("gather after severed conn: %v", err)
	}
	if !summariesEquivalent(&first, &got) {
		t.Fatal("post-reconnect gather drifted")
	}
	if clientHits() != 3 {
		t.Fatalf("reconnect did not force a full-summary resync (client hits %v)", clientHits())
	}
	// Delta resumes on the new connection.
	if _, err := client.Gather(context.Background()); err != nil {
		t.Fatal(err)
	}
	if clientHits() != 4 {
		t.Fatalf("delta did not resume after resync (client hits %v)", clientHits())
	}
}

// TestServerRefusesJSONClient pins the preamble check: a client speaking
// the retired newline-JSON protocol, or any other opening that is not the
// binary preamble, has its connection closed before anything is decoded,
// the refusal counts one server protocol error, and the listener keeps
// serving binary clients. A peer that hangs up mid-preamble is closed too
// but counts none: it sent nothing wrong.
func TestServerRefusesJSONClient(t *testing.T) {
	cases := []struct {
		name       string
		open       string
		hangUp     bool // half-close after writing, as a peer going away does
		wantErrors float64
	}{
		{"json-request-line", `{"op":"gather"}` + "\n", false, 1},
		{"http-request", "GET / HTTP/1.1\r\n\r\n", false, 1},
		{"wrong-version", string([]byte{binMagic, binVersion + 1}), false, 1},
		{"magic-then-hang-up", string([]byte{binMagic}), true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worker, err := NewRackWorker("rack0",
				core.NewShifting("rack0", 0, leaf("s0", "S0", 0, 400)),
				core.GlobalPriority, nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			srv, err := ServeRack(worker, "127.0.0.1:0", WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := io.WriteString(raw, tc.open); err != nil {
				t.Fatal(err)
			}
			if tc.hangUp {
				if err := raw.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
			}
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := raw.Read(make([]byte, 64))
			var ne net.Error
			if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("client read %d bytes (err %v), want the server to close the connection", n, err)
			}
			protoErrs := reg.CounterVec("capmaestro_rpc_protocol_errors_total", "", "role").With("server")
			if got := protoErrs.Value(); got != tc.wantErrors {
				t.Fatalf("server protocol_errors = %v, want %v", got, tc.wantErrors)
			}

			client := DialRack(srv.Addr(), time.Second)
			defer client.Close()
			if _, err := client.Gather(context.Background()); err != nil {
				t.Fatalf("binary gather after the refused client: %v", err)
			}
			if got := protoErrs.Value(); got != tc.wantErrors {
				t.Fatalf("binary client moved server protocol_errors to %v", got)
			}
		})
	}
}

// TestWireCodecOnlyBinary pins WithWireCodec: CodecBinary (or nothing) is
// accepted, any other name stops a server from starting and fails a
// client's first dial without a retry.
func TestWireCodecOnlyBinary(t *testing.T) {
	worker, err := NewRackWorker("rack0",
		core.NewShifting("rack0", 0, leaf("s0", "S0", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeRack(worker, "127.0.0.1:0", WithWireCodec("json")); err == nil || !strings.Contains(err.Error(), `"json"`) {
		t.Fatalf("ServeRack with codec json: err %v, want one naming it", err)
	}
	if _, err := ServeRacks(map[string]RackClient{"rack0": worker}, "127.0.0.1:0", WithWireCodec("auto")); err == nil {
		t.Fatal("ServeRacks accepted codec auto")
	}
	srv, err := ServeRack(worker, "127.0.0.1:0", WithWireCodec(CodecBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	bad := DialRack(srv.Addr(), time.Second, WithWireCodec("json"), WithTelemetry(reg), WithRPCRetry(3, time.Millisecond))
	defer bad.Close()
	if _, err := bad.Gather(context.Background()); !errors.Is(err, errWireCodec) {
		t.Fatalf("gather with codec json: %v, want errWireCodec", err)
	}
	retries := reg.CounterVec("capmaestro_rpc_retries_total", "", "role").With("client")
	if got := retries.Value(); got != 0 {
		t.Fatalf("unknown codec was retried %v times", got)
	}
	good := DialRack(srv.Addr(), time.Second, WithWireCodec(CodecBinary))
	defer good.Close()
	if _, err := good.Gather(context.Background()); err != nil {
		t.Fatalf("gather with CodecBinary: %v", err)
	}
}

// TestTransportChaos runs a room worker over a real TCP transport through
// the dropping proxy with fault injection layered on top: the codec must
// survive FaultyClient faults and WithRPCRetry reconnects with trace spans
// intact, and still land delta hits between the failures.
func TestTransportChaos(t *testing.T) {
	seed := chaosSeed(t)
	const periods = 10
	worker, err := NewRackWorker("tcprack",
		core.NewShifting("tcprack", 0, leaf("t0", "T0", 1, 400), leaf("t1", "T1", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := ServeRack(worker, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newDroppingProxy(t, srv.Addr(), 4)
	tcpClient := DialRack(proxy.addr(), time.Second,
		WithTelemetry(reg), WithRPCRetry(3, 2*time.Millisecond))
	defer tcpClient.Close()
	flaky := NewFaultyClient(tcpClient, seed)
	flaky.SetErrorRate(0.2)

	rec := flightrec.NewRecorder(periods)
	dumpTraceOnFailure(t, rec)
	room, err := NewRoomWorker(
		core.NewShifting("room", 0, core.NewProxy("tcprack", core.NewSummary())),
		2000, core.GlobalPriority,
		map[string]RackClient{"tcprack": flaky},
		WithFlightRecorder(rec), WithStalenessBound(3))
	if err != nil {
		t.Fatal(err)
	}
	for period := 0; period < periods; period++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, _, err := room.RunPeriod(ctx)
		cancel()
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
	}
	if proxy.dropCount() == 0 {
		t.Fatal("proxy never dropped a request; chaos did not engage")
	}
	// Trace invariants: every period has a root span carrying its
	// trace ID, and rack-side spans crossed the transport.
	rackSpans := 0
	for _, pr := range rec.Records() {
		roots := 0
		for _, s := range pr.Spans {
			if s.TraceID != pr.TraceID {
				t.Fatalf("record %d: span %s has trace %q, want %q", pr.ID, s.Name, s.TraceID, pr.TraceID)
			}
			if s.ParentID == "" {
				roots++
			}
			if s.Node == "tcprack" && (s.Name == "rack.gather" || s.Name == "rack.apply") {
				rackSpans++
			}
		}
		if roots != 1 {
			t.Fatalf("record %d: %d roots, want 1", pr.ID, roots)
		}
	}
	if rackSpans == 0 {
		t.Fatal("no rack-side spans survived the transport")
	}
	deltaVec := reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role")
	if got := deltaVec.With("client").Value(); got == 0 {
		t.Fatal("chaos run landed no delta hits")
	}
}
