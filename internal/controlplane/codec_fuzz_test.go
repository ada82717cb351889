package controlplane

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedFrames returns valid binary encodings of representative
// requests and responses — the corpus seeds the fuzzer mutates from. The
// same bytes are committed under testdata/fuzz/FuzzBinaryCodecDecode (the
// fuzzer also picks those up when run with -fuzz).
func fuzzSeedFrames(t interface{ Fatal(...any) }) [][]byte {
	var seeds [][]byte
	for _, req := range codecRequestFixtures() {
		c, buf := codecPair()
		if err := c.WriteRequest(&req); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, append([]byte(nil), buf.Bytes()...))
	}
	for _, resp := range codecResponseFixtures() {
		c, buf := codecPair()
		if err := c.WriteResponse(&resp); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, append([]byte(nil), buf.Bytes()...))
	}
	return seeds
}

// TestWriteFuzzSeedCorpus regenerates the committed corpus under
// testdata/fuzz/FuzzBinaryCodecDecode from the codec fixtures. Run with
// CAPMAESTRO_WRITE_FUZZ_SEEDS=1 after changing the wire layout so the
// seeds keep exercising every branch of the decoder.
func TestWriteFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("CAPMAESTRO_WRITE_FUZZ_SEEDS") == "" {
		t.Skip("set CAPMAESTRO_WRITE_FUZZ_SEEDS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryCodecDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedFrames(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzBinaryCodecDecode throws arbitrary bytes at both binary decoders.
// The contract under fuzzing: never panic, never allocate beyond the
// frame limit (enforced structurally by maxFrameLen and the count bounds),
// and — when a frame does decode — re-encoding and re-decoding it must be
// a fixed point, so no decodable input desyncs a stream.
func FuzzBinaryCodecDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Byte-level stability is the fixed-point property: it also holds
		// for NaN watt fields, where struct equality would not.
		var req wireRequest
		reqCodec := newBinaryCodec(bufio.NewReader(bytes.NewReader(data)), &bytes.Buffer{})
		if err := reqCodec.ReadRequest(&req); err == nil {
			rt, buf := codecPair()
			if err := rt.WriteRequest(&req); err != nil {
				t.Fatalf("decoded request failed to re-encode: %+v: %v", req, err)
			}
			reencoded := append([]byte(nil), buf.Bytes()...)
			var again wireRequest
			if err := rt.ReadRequest(&again); err != nil {
				t.Fatalf("re-encoded request failed to decode: %v", err)
			}
			rt2, buf2 := codecPair()
			if err := rt2.WriteRequest(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reencoded, buf2.Bytes()) {
				t.Fatalf("request re-encoding unstable:\n% x\n% x", reencoded, buf2.Bytes())
			}
		}

		var resp wireResponse
		respCodec := newBinaryCodec(bufio.NewReader(bytes.NewReader(data)), &bytes.Buffer{})
		if err := respCodec.ReadResponse(&resp); err == nil {
			rt, buf := codecPair()
			if err := rt.WriteResponse(&resp); err != nil {
				t.Fatalf("decoded response failed to re-encode: %+v: %v", resp, err)
			}
			reencoded := append([]byte(nil), buf.Bytes()...)
			var again wireResponse
			if err := rt.ReadResponse(&again); err != nil {
				t.Fatalf("re-encoded response failed to decode: %v", err)
			}
			rt2, buf2 := codecPair()
			if err := rt2.WriteResponse(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reencoded, buf2.Bytes()) {
				t.Fatalf("response re-encoding unstable:\n% x\n% x", reencoded, buf2.Bytes())
			}
		} else if resp.OK || resp.Summary != nil || resp.Spans != nil || resp.Explains != nil {
			t.Fatalf("failed response decode left state: %+v", resp)
		}
	})
}
