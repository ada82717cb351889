package scale

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// BenchFile is the BENCH_controlplane.json shape, matching the repo's
// other committed benchmark records.
type BenchFile struct {
	Benchmark string   `json:"benchmark"`
	Machine   string   `json:"machine"`
	Runs      []Result `json:"runs"`
	Summary   string   `json:"summary"`
}

// MachineString describes the host the sweep ran on.
func MachineString() string {
	return fmt.Sprintf("%s/%s, %s, GOMAXPROCS=%d", runtime.GOOS, runtime.GOARCH,
		runtime.Version(), runtime.GOMAXPROCS(0))
}

// Summarize builds the bench-file summary line from the sweep's results:
// the largest run's headline numbers plus each digest run's wire cost.
func Summarize(runs []Result) string {
	if len(runs) == 0 {
		return "no runs"
	}
	largest := &runs[0]
	for i := range runs {
		if runs[i].Servers > largest.Servers {
			largest = &runs[i]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Largest run: %d servers (%d racks, %d levels, %s codec) full gather→allocate→push cycle p50 %.1f ms / p99 %.1f ms — %.0fx inside the 8 s control period.",
		largest.Servers, largest.Racks, largest.Levels, largest.Codec,
		largest.P50Ms, largest.P99Ms, 8000/largest.P99Ms)
	for i := range runs {
		r := &runs[i]
		if !r.Digests {
			continue
		}
		fmt.Fprintf(&b, " Fleet digests on %s (%s codec): %.0f digest B/period, %.1f%% of inbound gather bytes; rollup %d racks / %.0f W watt-exact, %d outlier racks.",
			r.Name, r.Codec, r.DigestBytesPerPeriod, 100*r.DigestShareOfBytesIn,
			r.FleetRacks, r.FleetPowerWatts, r.FleetOutlierRacks)
	}
	return b.String()
}

// WriteBench writes the results as BENCH_controlplane.json-style output.
func WriteBench(path string, runs []Result) error {
	f := BenchFile{
		Benchmark: "scalesim (simulated rack workers over real localhost TCP; one run = a sharded hierarchy driven for `periods` control periods; latency percentiles are full gather→allocate→push cycles; rpc_latency_ms runs add an emulated one-way per-frame network delay through a local proxy)",
		Machine:   MachineString(),
		Runs:      runs,
		Summary:   Summarize(runs),
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
