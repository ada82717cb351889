package controlplane

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"capmaestro/internal/core"
)

// BenchmarkTransport measures the wire cost of the gather hot path —
// encode request, decode request, encode response, decode response —
// through the production codecs and delta tracker, over in-memory pipes
// so codec work dominates rather than kernel socket overhead. One op is a
// full gather sweep across `racks` connections; the wireB/rpc metric is
// total bytes on the wire divided by individual RPCs. End-to-end wire
// counts per control period come from `go run ./benchmark --trace 1`.
//
//	go test ./internal/controlplane -run '^$' -bench BenchmarkTransport -benchtime 1000x
func BenchmarkTransport(b *testing.B) {
	for _, racks := range []int{1, 64, 1024} {
		for _, cfg := range []struct {
			name  string
			delta bool
		}{
			{"binary", false},
			{"binary-delta", true},
		} {
			b.Run(fmt.Sprintf("%s/racks=%d", cfg.name, racks), func(b *testing.B) {
				benchTransport(b, cfg.delta, racks)
			})
		}
	}
}

func benchTransport(b *testing.B, delta bool, racks int) {
	conns := make([]*benchConn, racks)
	for i := range conns {
		conns[i] = newBenchConn(b, delta)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range conns {
			if err := c.gather(delta); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	var wire int64
	for _, c := range conns {
		wire += c.c2s.n + c.s2c.n
	}
	b.ReportMetric(float64(wire)/float64(b.N)/float64(racks), "wireB/rpc")
}

// countingWriter tallies bytes passed through to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// splitRW joins independent read and write halves into the io.ReadWriter
// a client codec binds to.
type splitRW struct {
	io.Reader
	io.Writer
}

// benchConn is one simulated rack connection: the client codec end, the
// server codec end (preamble checked by newServerCodec exactly as
// serveConn does), the server's delta tracker, and the client's cached
// summary. Request/response structs live on the conn so the measured
// loop takes no heap allocations of its own.
type benchConn struct {
	client *binaryCodec
	server *binaryCodec
	delta  *deltaTracker

	c2s *countingWriter
	s2c *countingWriter

	summary core.Summary // the rack's (static) gather result
	cached  core.Summary // client-side cache for delta resolution
	have    bool

	reqC, reqS   *wireRequest
	respC, respS *wireResponse
}

func newBenchConn(b *testing.B, delta bool) *benchConn {
	b.Helper()
	reqPipe := &bytes.Buffer{}
	respPipe := &bytes.Buffer{}
	c := &benchConn{
		c2s:   &countingWriter{w: reqPipe},
		s2c:   &countingWriter{w: respPipe},
		reqC:  &wireRequest{},
		reqS:  &wireRequest{},
		respC: &wireResponse{},
		respS: &wireResponse{},
	}
	c.client = newClientCodec(splitRW{respPipe, c.c2s})
	c.summary = core.NewSummary()
	c.summary.Constraint = 12800
	c.summary.SetLevel(3, 800, 1950.5, 1950.5)
	c.summary.SetLevel(2, 640, 2210.25, 2100)
	c.summary.SetLevel(1, 320, 4400, 3875.75)
	c.summary.SetLevel(0, 0, 5120, 2048)
	if delta {
		c.delta = &deltaTracker{}
	}

	// First exchange carries the preamble the server codec checks; two
	// more warm every reusable buffer (codec frame
	// buffers, pipe capacity, delta tracker state) so the measured loop
	// is steady state.
	if err := c.client.WriteRequest(&wireRequest{Op: opGather}); err != nil {
		b.Fatal(err)
	}
	srv, err := newServerCodec(bufio.NewReader(reqPipe), c.s2c)
	if err != nil {
		b.Fatal(err)
	}
	c.server = srv
	if err := c.finishWarmupGather(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.gather(delta); err != nil {
			b.Fatal(err)
		}
	}
	c.c2s.n, c.s2c.n = 0, 0
	return c
}

// finishWarmupGather completes the first exchange, whose request was
// already written before the server codec checked the preamble.
func (c *benchConn) finishWarmupGather() error {
	if err := c.server.ReadRequest(c.reqS); err != nil {
		return err
	}
	return c.finishExchange()
}

// gather runs one full RPC: the client encodes a gather (advertising its
// cache when the delta path is on), the server decodes it, squashes
// through the delta tracker, responds, and the client decodes, resolving
// unchanged frames from its cache — the same steps serveConn and
// TCPClient perform.
func (c *benchConn) gather(delta bool) error {
	*c.reqC = wireRequest{Op: opGather, HaveCached: delta && c.have}
	if err := c.client.WriteRequest(c.reqC); err != nil {
		return err
	}
	if err := c.server.ReadRequest(c.reqS); err != nil {
		return err
	}
	return c.finishExchange()
}

func (c *benchConn) finishExchange() error {
	*c.respS = wireResponse{OK: true, Summary: &c.summary}
	c.delta.squash(c.reqS, c.respS)
	if err := c.server.WriteResponse(c.respS); err != nil {
		return err
	}
	if err := c.client.ReadResponse(c.respC); err != nil {
		return err
	}
	switch {
	case c.respC.Unchanged:
		if !c.have {
			return errors.New("unchanged frame without client cache")
		}
	case c.respC.Summary != nil:
		c.cached = *c.respC.Summary
		c.have = true
	default:
		return errors.New("gather response without summary")
	}
	return nil
}
