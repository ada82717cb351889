package sim

import (
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/slo"
	"capmaestro/internal/topology"
)

// TestSimControlTickAllocs requires a steady control period — eight ticks
// of plant, breakers and SLO scoring, one allocation with its SPO pass,
// budgets applied and one SLO evaluation — to allocate nothing beyond a
// small gate, with both feeds live (stranded power re-budgeted every
// period) and with feed X down.
func TestSimControlTickAllocs(t *testing.T) {
	const gate = 50
	topo, servers := mirroredFleet(t, 2, 3, 6, 3000)
	tracker, err := slo.New(slo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Topology: topo, Servers: servers, Policy: core.GlobalPriority, SPO: true, SLO: tracker,
		RootBudgets: map[topology.FeedID]power.Watts{"X": 2 * 3 * 3000, "Y": 2 * 3 * 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range []string{"both feeds", "feed X down"} {
		if state == "feed X down" {
			s.FailFeed("X")
		}
		s.Run(4 * DefaultControlPeriod) // rebind, settle, open and close any window
		if state == "both feeds" {
			if r := s.LastSPOReport(); r == nil || len(r.Stranded) == 0 {
				t.Fatalf("%s: no stranded power to re-budget: the SPO pass went unmeasured", state)
			}
		}
		allocs := testing.AllocsPerRun(4, func() { s.Run(DefaultControlPeriod) })
		t.Logf("%s: %v allocations per control period", state, allocs)
		if allocs > gate {
			t.Errorf("%s: a control period allocates %v times, want ≤ %d", state, allocs, gate)
		}
	}
	if tripped := s.TrippedBreakers(); len(tripped) > 0 {
		t.Fatalf("breakers tripped: %v", tripped)
	}
}

// TestLastSPOReportClearedWithoutTrees: a period with no live feed tree
// budgets nothing, so it must leave no stranded-power report behind —
// LastSPOReport agrees with LastControlTrees and LastAllocation.
func TestLastSPOReportClearedWithoutTrees(t *testing.T) {
	topo, servers := mirroredFleet(t, 1, 1, 4, 3000)
	s, err := New(Config{Topology: topo, Servers: servers, Policy: core.GlobalPriority, SPO: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2*DefaultControlPeriod + time.Second)
	if s.LastSPOReport() == nil {
		t.Fatal("no SPO report after an SPO period")
	}
	s.FailFeed("X")
	s.FailFeed("Y")
	s.Run(DefaultControlPeriod)
	if trees, _, _ := s.LastControlTrees(); len(trees) != 0 {
		t.Fatalf("LastControlTrees = %d trees with both feeds down", len(trees))
	}
	if a := s.LastAllocation("X"); a != nil {
		t.Fatalf("LastAllocation(X) = %+v with both feeds down", a)
	}
	if r := s.LastSPOReport(); r != nil {
		t.Fatalf("LastSPOReport = %+v after a period with no live tree, want nil", r)
	}
}
