package sim

import (
	"fmt"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/slo"
	"capmaestro/internal/topology"
)

// mirroredFleet builds a 2-feed fleet of rpps RPPs × racksPerRPP racks ×
// perRack dual-corded servers, each server corded to the same rack
// position on feeds X and Y with an uneven split.
func mirroredFleet(tb testing.TB, rpps, racksPerRPP, perRack int, rackRating power.Watts) (*topology.Topology, map[string]ServerSpec) {
	tb.Helper()
	servers := make(map[string]ServerSpec)
	mkFeed := func(feed topology.FeedID) *topology.Node {
		root := topology.NewNode(string(feed), topology.KindUtility, 0)
		root.Feed = feed
		for r := 0; r < rpps; r++ {
			rpp := root.AddChild(topology.NewNode(fmt.Sprintf("%s-rpp%d", feed, r), topology.KindRPP, power.Watts(racksPerRPP)*rackRating))
			for c := 0; c < racksPerRPP; c++ {
				rack := rpp.AddChild(topology.NewNode(fmt.Sprintf("%s-rpp%d-rack%d", feed, r, c), topology.KindCDU, rackRating))
				for i := 0; i < perRack; i++ {
					id := fmt.Sprintf("r%d-c%d-s%02d", r, c, i)
					split := 0.4 + 0.05*float64(i%5)
					if feed == "Y" {
						split = 1 - split
					}
					rack.AddChild(topology.NewSupply(id+"-"+string(feed), id, split))
					servers[id] = ServerSpec{Priority: core.Priority(1 + i%3), Utilization: 0.6 + 0.1*float64(i%3)}
				}
			}
		}
		return root
	}
	topo, err := topology.New(mkFeed("X"), mkFeed("Y"))
	if err != nil {
		tb.Fatal(err)
	}
	return topo, servers
}

// benchFleet builds BenchmarkSimPeriod's simulator: a mirrored 2-feed
// fleet of 4 RPPs × 9 racks × 30 dual-corded servers (1 080 servers), SLO
// tracker attached and SPO on, with feed X down and capping settled on Y.
func benchFleet(b *testing.B) *Simulator {
	const (
		rpps, racksPerRPP, perRack = 4, 9, 30
		rackRating                 = 10800
	)
	topo, servers := mirroredFleet(b, rpps, racksPerRPP, perRack, rackRating)
	tracker, err := slo.New(slo.Config{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Topology: topo,
		Servers:  servers,
		Policy:   core.GlobalPriority,
		SPO:      true,
		SLO:      tracker,
		RootBudgets: map[topology.FeedID]power.Watts{
			"X": rpps * racksPerRPP * rackRating, "Y": rpps * racksPerRPP * rackRating,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	s.FailFeed("X")
	s.Run(4 * DefaultControlPeriod) // let capping settle on the surviving feed
	if tripped := s.TrippedBreakers(); len(tripped) > 0 {
		b.Fatalf("breakers tripped during warm-up: %v", tripped)
	}
	return s
}

// benchPeriods times b.N control periods, each after fault(i), and fails
// the benchmark if a breaker tripped.
func benchPeriods(b *testing.B, s *Simulator, fault func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fault(i)
		s.Run(DefaultControlPeriod)
	}
	b.StopTimer()
	if tripped := s.TrippedBreakers(); len(tripped) > 0 {
		b.Fatalf("breakers tripped: %v", tripped)
	}
}

// BenchmarkSimPeriod times one 8-tick control period — eight rounds of
// actuation, sensing, breaker heat and SLO scoring plus one allocation —
// over benchFleet, with feed X down so every rack is capped on Y.
func BenchmarkSimPeriod(b *testing.B) {
	benchPeriods(b, benchFleet(b), func(int) {})
}

// BenchmarkSimFaultPeriod is BenchmarkSimPeriod with a fault at every
// period: feed X is restored and feed Y fails, then the reverse, so each
// period is the first after a failure and a restore and budgets one live
// tree, as a steady one does.
func BenchmarkSimFaultPeriod(b *testing.B) {
	s := benchFleet(b)
	benchPeriods(b, s, func(i int) {
		up, down := topology.FeedID("X"), topology.FeedID("Y")
		if i%2 == 1 {
			up, down = down, up
		}
		s.RestoreFeed(up)
		s.FailFeed(down)
	})
}
