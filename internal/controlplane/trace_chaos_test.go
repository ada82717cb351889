package controlplane

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
)

// droppingProxy sits between a TCPClient and a RackServer and drops every
// Nth request on each connection: it reads one whole request, discards it,
// and closes the connection. The client sees a transport failure mid-RPC
// and must retry over a fresh connection — exactly the reconnect path
// WithRPCRetry exists for. The proxy frames requests by their length
// prefix, after forwarding the connection preamble.
type droppingProxy struct {
	ln      net.Listener
	backend string
	every   int

	mu    sync.Mutex
	drops int
}

func newDroppingProxy(t *testing.T, backend string, every int) *droppingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &droppingProxy{ln: ln, backend: backend, every: every}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *droppingProxy) addr() string { return p.ln.Addr().String() }

func (p *droppingProxy) dropCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}

func (p *droppingProxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(conn)
	}
}

func (p *droppingProxy) serve(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer server.Close()
	go io.Copy(client, server) // responses flow back untouched
	br := bufio.NewReader(client)
	// Forward the two-byte preamble for the backend to check.
	pre := make([]byte, 2)
	if _, err := io.ReadFull(br, pre); err != nil {
		return
	}
	if _, err := server.Write(pre); err != nil {
		return
	}
	for n := 1; ; n++ {
		frame, err := readRequestFrame(br)
		if err != nil {
			return
		}
		if p.every > 0 && n%p.every == 0 {
			// Swallow this request and sever the connection: the rack
			// never sees it, the client's pending decode fails.
			p.mu.Lock()
			p.drops++
			p.mu.Unlock()
			return
		}
		if _, err := server.Write(frame); err != nil {
			return
		}
	}
}

// readRequestFrame reads exactly one length-prefixed request frame off
// the client connection, header included.
func readRequestFrame(br *bufio.Reader) ([]byte, error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrameLen {
		return nil, fmt.Errorf("proxy: frame length %d exceeds limit", n)
	}
	frame := make([]byte, 4+int(n))
	copy(frame, hdr)
	if _, err := io.ReadFull(br, frame[4:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// TestTraceChaosPropagation drives a room worker — with the flight
// recorder on — over one rack reached through a real TCP transport whose
// connections are severed every few requests, and one flaky in-process
// rack, asserting the trace invariants the tentpole promises:
//
//   - every completed period yields exactly one root span, and every other
//     span's parent chain terminates at that root;
//   - rack-side spans produced across the TCP transport (including after
//     mid-RPC connection kills and reconnects) carry the period's trace ID
//     and nest under the room's rpc spans;
//   - transport retries are counted on the rpc span that absorbed them.
func TestTraceChaosPropagation(t *testing.T) {
	seed := chaosSeed(t)
	const periods = 12

	tcpWorker, err := NewRackWorker("tcprack",
		core.NewShifting("tcprack", 0, leaf("t0", "T0", 1, 400), leaf("t1", "T1", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeRack(tcpWorker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Drop every 3rd request per connection: with two RPCs per period
	// (gather + apply) every other period retries mid-period.
	proxy := newDroppingProxy(t, srv.Addr(), 3)
	tcpClient := DialRack(proxy.addr(), time.Second, WithRPCRetry(3, 2*time.Millisecond))
	defer tcpClient.Close()

	localWorker, err := NewRackWorker("flaky",
		core.NewShifting("flaky", 0, leaf("f0", "F0", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	flaky := NewFaultyClient(LocalClient{Worker: localWorker}, seed)
	flaky.SetErrorRate(0.3)

	rec := flightrec.NewRecorder(periods)
	dumpTraceOnFailure(t, rec)
	room, err := NewRoomWorker(
		core.NewShifting("room", 0,
			core.NewProxy("tcprack", core.NewSummary()),
			core.NewProxy("flaky", core.NewSummary())),
		2000, core.GlobalPriority,
		map[string]RackClient{"tcprack": tcpClient, "flaky": flaky},
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

	records := rec.Records()
	if len(records) != periods {
		t.Fatalf("recorded %d periods, want %d", len(records), periods)
	}
	if proxy.dropCount() == 0 {
		t.Fatal("proxy never dropped a request; chaos did not engage")
	}

	seenTraces := make(map[string]bool)
	totalRetries, tcpRackSpans := 0, 0
	for _, pr := range records {
		if pr.TraceID == "" || seenTraces[pr.TraceID] {
			t.Fatalf("record %d: trace ID %q empty or reused", pr.ID, pr.TraceID)
		}
		seenTraces[pr.TraceID] = true

		byID := make(map[string]flightrec.Span, len(pr.Spans))
		var root flightrec.Span
		roots := 0
		for _, s := range pr.Spans {
			if s.TraceID != pr.TraceID {
				t.Fatalf("record %d: span %s/%s carries trace %q, want %q",
					pr.ID, s.Name, s.Node, s.TraceID, pr.TraceID)
			}
			if _, dup := byID[s.SpanID]; dup {
				t.Fatalf("record %d: duplicate span ID %s", pr.ID, s.SpanID)
			}
			byID[s.SpanID] = s
			if s.ParentID == "" {
				roots++
				root = s
			}
		}
		if roots != 1 {
			t.Fatalf("record %d: %d root spans, want exactly 1", pr.ID, roots)
		}
		if root.Name != "period" || root.Node != "room" {
			t.Fatalf("record %d: root span is %s/%s, want period/room", pr.ID, root.Name, root.Node)
		}

		// Every span's parent chain must resolve within the record and
		// terminate at the root — no orphans, no cycles.
		for _, s := range pr.Spans {
			cur, hops := s, 0
			for cur.ParentID != "" {
				parent, ok := byID[cur.ParentID]
				if !ok {
					t.Fatalf("record %d: span %s/%s has unresolved parent %s",
						pr.ID, s.Name, s.Node, cur.ParentID)
				}
				cur = parent
				if hops++; hops > len(pr.Spans) {
					t.Fatalf("record %d: parent cycle at span %s/%s", pr.ID, s.Name, s.Node)
				}
			}
			if cur.SpanID != root.SpanID {
				t.Fatalf("record %d: span %s/%s chains to %s, not the root",
					pr.ID, s.Name, s.Node, cur.SpanID)
			}
			totalRetries += s.Retries
		}

		// The rack's own spans crossed the TCP transport: each one must
		// nest under the corresponding room-side rpc span.
		for _, s := range pr.Spans {
			if s.Node != "tcprack" || (s.Name != "rack.gather" && s.Name != "rack.apply") {
				continue
			}
			tcpRackSpans++
			parent := byID[s.ParentID]
			want := "rpc.gather"
			if s.Name == "rack.apply" {
				want = "rpc.apply"
			}
			if parent.Name != want || parent.Node != "tcprack" {
				t.Fatalf("record %d: %s parented under %s/%s, want %s/tcprack",
					pr.ID, s.Name, parent.Name, parent.Node, want)
			}
		}
		// Explain records from both the room allocation and the racks'
		// local distributions ride along with the spans.
		if pr.Err == "" && len(pr.Explains) == 0 {
			t.Fatalf("record %d: completed period has no explain records", pr.ID)
		}
	}
	if tcpRackSpans == 0 {
		t.Fatal("no rack-side spans survived the TCP transport")
	}
	if totalRetries == 0 {
		t.Fatal("no span recorded a transport retry despite dropped requests")
	}
	// The flaky rack's failures are visible in the trace, tagged on the
	// room-side rpc span.
	if flaky.InjectedFaults() > 0 {
		foundErr := false
		for _, pr := range records {
			for _, s := range pr.Spans {
				if s.Node == "flaky" && s.Name == "rpc.gather" && s.Error != "" {
					foundErr = true
				}
			}
		}
		if !foundErr {
			t.Error("injected gather faults left no error-tagged rpc span")
		}
	}
}
