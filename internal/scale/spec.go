// Package scale is the control-plane scale harness: it stands up
// thousands of simulated rack workers over real TCP on localhost, drives
// a sharded hierarchy over them for a configured number of control
// periods, and reports latency percentiles, goroutine counts, and wire
// bytes per period. cmd/scalesim is the CLI; sweep files declare lists of
// Specs and results land in BENCH_controlplane.json.
package scale

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Spec declares one scale-harness run.
type Spec struct {
	Name           string `json:"name"`
	Racks          int    `json:"racks"`
	ServersPerRack int    `json:"servers_per_rack"`
	// Levels counts every worker tier, racks and room included (2 = flat
	// room over racks; 3 adds one aggregator tier).
	Levels int `json:"levels"`
	// FanOut is the hierarchy fan-out and the rack-endpoint group size:
	// each multi-rack TCP server hosts FanOut rack workers, aligned with
	// the level-1 aggregator chunking so one batch frame serves one
	// aggregator's children.
	FanOut int `json:"fan_out"`
	// Codec is "binary" (delta responses off) or "binary-delta" (a 1 W
	// delta deadband, so unchanged summaries squash to marker frames).
	Codec string `json:"codec"`
	// Batch multiplexes each endpoint's racks into single gather/push
	// frames over one shared connection; false dials one connection per
	// rack and issues per-rack RPCs (the pre-batching design).
	Batch bool `json:"batch"`
	// Periods is how many measured control periods to run (default 20)
	// after Warmup unmeasured ones (default 3).
	Periods int `json:"periods,omitempty"`
	Warmup  int `json:"warmup,omitempty"`
	// RPCConcurrency bounds in-flight rack RPCs per worker (0 = default).
	RPCConcurrency int `json:"rpc_concurrency,omitempty"`
	// RPCLatencyMs injects one-way per-frame latency through a local TCP
	// proxy, emulating the ms-scale in-room RTT the paper's deployment
	// sees. 0 connects directly (pure loopback).
	RPCLatencyMs float64 `json:"rpc_latency_ms,omitempty"`
	// Digests turns on the fleet observability plane: clients request
	// per-rack stat digests in-band on gather frames and every tier merges
	// them, so the run also measures the digest wire overhead.
	Digests bool `json:"digests,omitempty"`
	// Seed drives the deterministic per-server demand mix.
	Seed uint64 `json:"seed,omitempty"`
}

func (s *Spec) defaults() {
	if s.Periods <= 0 {
		s.Periods = 20
	}
	if s.Warmup < 0 {
		s.Warmup = 0
	} else if s.Warmup == 0 {
		s.Warmup = 3
	}
	if s.FanOut <= 0 {
		s.FanOut = 50
	}
	if s.Codec == "" {
		s.Codec = "binary"
	}
	if s.Seed == 0 {
		s.Seed = 0x5ca1ab1e
	}
}

// Validate rejects specs the harness cannot run.
func (s *Spec) Validate() error {
	if s.Racks <= 0 || s.ServersPerRack <= 0 {
		return fmt.Errorf("scale: spec %q: racks and servers_per_rack must be positive", s.Name)
	}
	if s.Levels < 2 {
		return fmt.Errorf("scale: spec %q: levels must be >= 2", s.Name)
	}
	switch s.Codec {
	case "binary", "binary-delta":
	default:
		return fmt.Errorf("scale: spec %q: unknown codec %q (want binary or binary-delta)", s.Name, s.Codec)
	}
	return nil
}

// Result is one completed run's measurements.
type Result struct {
	Spec
	Servers   int `json:"servers"`
	Endpoints int `json:"endpoints"`
	// Control-period latency over the measured periods, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// EffectivePeriodMs is measured wall clock divided by measured
	// periods: the sustainable back-to-back control-period cadence.
	EffectivePeriodMs float64 `json:"effective_period_ms"`
	// PeakGoroutines is the maximum goroutine count sampled during the
	// measured span — clients, room, aggregators, AND the in-process rack
	// servers' per-connection handlers.
	PeakGoroutines int `json:"peak_goroutines"`
	// Wire traffic per period as seen by the client role (room tier and
	// aggregator tiers combined), bytes.
	BytesOutPerPeriod float64 `json:"bytes_out_per_period"`
	BytesInPerPeriod  float64 `json:"bytes_in_per_period"`
	// DeltaHitsPerPeriod counts gather responses squashed to
	// unchanged-summary frames (binary-delta runs).
	DeltaHitsPerPeriod float64 `json:"delta_hits_per_period,omitempty"`
	// Digest-plane wire cost (digest runs over the binary codec): bytes of
	// digest payload inside gather frames per period, and that as a share
	// of total inbound client bytes — the observability plane's overhead.
	// Deliberately not omitempty: 0 on a binary-delta digest run records
	// that every steady-state digest squashed to a cached-copy marker.
	DigestBytesPerPeriod float64 `json:"digest_bytes_per_period"`
	DigestShareOfBytesIn float64 `json:"digest_share_of_bytes_in"`
	// Fleet rollup from the final measured period (digest runs): rack
	// count and summed power must match the fleet exactly — Run fails the
	// spec otherwise — and outliers count low-headroom/violating racks.
	FleetRacks        int     `json:"fleet_racks,omitempty"`
	FleetPowerWatts   float64 `json:"fleet_power_watts,omitempty"`
	FleetOutlierRacks int     `json:"fleet_outlier_racks,omitempty"`
	// Sanity from the final measured period: all should be zero.
	GatherErrors int `json:"gather_errors"`
	ApplyErrors  int `json:"apply_errors"`
	BudgetsHeld  int `json:"budgets_held"`
}

// Sweep is the on-disk sweep-file format: a named list of runs.
type Sweep struct {
	Name string `json:"name"`
	Runs []Spec `json:"runs"`
}

// LoadSweep reads and validates a sweep file. A field the Spec does not
// know — a retired knob such as "pipeline", or a typo — fails the load
// with an error naming it rather than being silently ignored.
func LoadSweep(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sw Sweep
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return nil, fmt.Errorf("scale: sweep %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scale: sweep %s: trailing data after document", path)
	}
	for i := range sw.Runs {
		sw.Runs[i].defaults()
		if err := sw.Runs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &sw, nil
}

// percentile returns the p-th percentile (0..1, nearest-rank) of the
// sorted durations in ms.
func percentile(sortedMs []float64, p float64) float64 {
	if len(sortedMs) == 0 {
		return 0
	}
	i := int(p*float64(len(sortedMs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sortedMs) {
		i = len(sortedMs) - 1
	}
	return sortedMs[i]
}

func summarizeLatencies(elapsed []time.Duration) (p50, p95, p99, max float64) {
	ms := make([]float64, len(elapsed))
	for i, d := range elapsed {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	return percentile(ms, 0.50), percentile(ms, 0.95), percentile(ms, 0.99), ms[len(ms)-1]
}
