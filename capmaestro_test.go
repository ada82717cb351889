// Tests of the public facade: everything a downstream user touches should
// be reachable without importing internal packages.
package capmaestro_test

import (
	"math"
	"testing"
	"time"

	"capmaestro"
)

func facadeLeaf(id, srv string, prio capmaestro.Priority, demand capmaestro.Watts) *capmaestro.Node {
	return capmaestro.NewLeaf(id, capmaestro.SupplyLeaf{
		SupplyID: id, ServerID: srv, Priority: prio, Share: 1,
		CapMin: 270, CapMax: 490, Demand: demand,
	})
}

func TestFacadeAllocate(t *testing.T) {
	tree := capmaestro.NewShifting("top", 1400,
		capmaestro.NewShifting("left", 750,
			facadeLeaf("SA", "SA", 1, 430), facadeLeaf("SB", "SB", 0, 430)),
		capmaestro.NewShifting("right", 750,
			facadeLeaf("SC", "SC", 0, 430), facadeLeaf("SD", "SD", 0, 430)),
	)
	alloc, err := capmaestro.Allocate(tree, 1240, capmaestro.GlobalPriority)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Budget("SA"); got != 430 {
		t.Errorf("SA budget = %v, want 430", got)
	}
}

func TestFacadeUnitsAndModels(t *testing.T) {
	if capmaestro.Kilowatts(6.9) != 6900 {
		t.Error("Kilowatts wrong")
	}
	if tp := capmaestro.NormalizedThroughput(314, 420); math.Abs(tp-0.82) > 0.01 {
		t.Errorf("throughput model = %v, want ~0.82", tp)
	}
}

func TestFacadeTopologyAndSimulator(t *testing.T) {
	mkFeed := func(feed capmaestro.FeedID) *capmaestro.TopologyNode {
		root := capmaestro.NewTopologyNode(string(feed), capmaestro.KindUtility, 0)
		root.Feed = feed
		cdu := root.AddChild(capmaestro.NewTopologyNode(string(feed)+"-cdu", capmaestro.KindCDU, 900))
		cdu.AddChild(capmaestro.NewTopologySupply("s1-"+string(feed), "s1", 0.5))
		return root
	}
	topo, err := capmaestro.NewTopology(mkFeed("A"), mkFeed("B"))
	if err != nil {
		t.Fatal(err)
	}
	derating := capmaestro.FullRating()
	s, err := capmaestro.NewSimulator(capmaestro.SimConfig{
		Topology: topo,
		Servers: map[string]capmaestro.ServerSpec{
			"s1": {Priority: 1, Utilization: 0.9},
		},
		Policy:      capmaestro.GlobalPriority,
		RootBudgets: map[capmaestro.FeedID]capmaestro.Watts{"A": 900, "B": 900},
		Derating:    &derating,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)
	if p := s.Server("s1").ACPower(); p < 400 {
		t.Errorf("uncapped server power = %v", p)
	}
	if len(s.TrippedBreakers()) != 0 {
		t.Error("unexpected breaker trip")
	}
}

func TestFacadeSPO(t *testing.T) {
	x := capmaestro.NewShifting("x", 0,
		capmaestro.NewLeaf("a-x", capmaestro.SupplyLeaf{
			SupplyID: "a-x", ServerID: "a", Share: 0.7,
			CapMin: 270, CapMax: 490, Demand: 480}),
	)
	y := capmaestro.NewShifting("y", 0,
		capmaestro.NewLeaf("a-y", capmaestro.SupplyLeaf{
			SupplyID: "a-y", ServerID: "a", Share: 0.3,
			CapMin: 270, CapMax: 490, Demand: 480}),
		capmaestro.NewLeaf("b-y", capmaestro.SupplyLeaf{
			SupplyID: "b-y", ServerID: "b", Share: 1,
			CapMin: 270, CapMax: 490, Demand: 490}),
	)
	trees := []*capmaestro.Node{x, y}
	budgets := []capmaestro.Watts{210, 600}
	allocs, report, err := capmaestro.AllocateWithSPO(trees, budgets, capmaestro.GlobalPriority)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatal("expected two allocations")
	}
	if report.TotalStranded < 0 {
		t.Error("negative stranding")
	}
}

func TestFacadeCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search is expensive")
	}
	cfg := capmaestro.DefaultDataCenterConfig()
	cfg.TransformersPerFeed = 1
	cfg.RPPsPerTransformer = 2
	cfg.CDUsPerRPP = 2
	cfg.ContractualPerPhase = capmaestro.Kilowatts(25)
	res, err := capmaestro.FindCapacity(cfg, capmaestro.WorstCase, capmaestro.GlobalPriority,
		capmaestro.StudyOptions{WorstCaseRuns: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServers <= 0 {
		t.Errorf("capacity = %+v", res)
	}
}

func TestFacadeScheduler(t *testing.T) {
	var changes int
	sched, err := capmaestro.NewScheduler(
		[]capmaestro.SchedServer{{ID: "n1", Cores: 28}},
		func(string, capmaestro.Priority, capmaestro.Priority) { changes++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(capmaestro.Job{ID: "j1", Cores: 8, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if changes != 1 {
		t.Errorf("priority changes = %d, want 1", changes)
	}
	if err := sched.MeterEnergy("n1", 400, 160, time.Hour); err != nil {
		t.Fatal(err)
	}
	if sched.EnergyWh("j1") <= 0 {
		t.Error("job energy not metered")
	}
}
