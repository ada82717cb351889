package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"capmaestro/internal/sim"
	"capmaestro/internal/slo"
)

// endStateGolden renders a finished run as its end-state digest followed
// by the closed exposure windows. encoding/json writes the shortest float
// that round-trips, so equal bytes mean bit-identical simulated values.
func endStateGolden(t *testing.T, s *sim.Simulator, tracker *slo.Tracker) []byte {
	t.Helper()
	es, err := CaptureEndState(s).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	windows, err := json.MarshalIndent(tracker.ClosedWindows(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.Write(es)
	b.WriteByte('\n')
	b.Write(windows)
	b.WriteByte('\n')
	return b.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", "endstate", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("end state drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestEndStateGolden pins the simulated outcome — every server's final AC
// power and throttle, trips, violations, infeasible periods and exposure
// windows — of generated seeds 1..8 and of every committed scenario, so a
// change meant to make the simulator faster can show it computes the same
// numbers bit for bit. Regenerate with `go test -run EndStateGolden
// -update ./internal/scenario/` only when a change means to alter them.
func TestEndStateGolden(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("gen-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed)
			tracker, err := slo.New(slo.Config{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := sc.BuildSimWithSLO(tracker)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(time.Duration(sc.DurationSec) * time.Second)
			checkGolden(t, "gen-"+strconv.FormatInt(seed, 10), endStateGolden(t, s, tracker))
		})
	}
	for _, path := range libraryPaths(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".yaml")
		path := path
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunFile(f, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, endStateGolden(t, res.Sim, res.SLO))
		})
	}
}

// TestServerIDsDoNotAlias overwrites the slice Simulator.ServerIDs hands
// out: a later ServerIDs call, the tick order and the end state must not
// notice, because the simulator keeps its sorted ID list to itself.
func TestServerIDsDoNotAlias(t *testing.T) {
	sc := Generate(7) // five servers, some throttled at the end
	build := func() *sim.Simulator {
		s, err := sc.BuildSim()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	clean, poked := build(), build()
	want := clean.ServerIDs()
	ids := poked.ServerIDs()
	for i := range ids {
		ids[i] = want[0] // a leaked slice would step only this server
	}
	if got := poked.ServerIDs(); !slices.Equal(got, want) {
		t.Fatalf("ServerIDs after mutating a returned slice = %v, want %v", got, want)
	}
	d := time.Duration(sc.DurationSec) * time.Second
	clean.Run(d)
	poked.Run(d)
	a, err := CaptureEndState(clean).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureEndState(poked).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("end state depends on a mutated ServerIDs slice:\nclean:\n%s\npoked:\n%s", a, b)
	}
}
