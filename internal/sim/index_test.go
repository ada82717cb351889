package sim

import (
	"math/rand"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/server"
	"capmaestro/internal/slo"
	"capmaestro/internal/topology"
)

// walkLoad is the reference breaker load: walk the topology beneath the
// node and sum every supply's AC draw, looked up by ID, in Walk order.
func walkLoad(s *Simulator, nodeID string) power.Watts {
	n := s.Topology().Node(nodeID)
	if n == nil {
		return 0
	}
	var load power.Watts
	n.Walk(func(m *topology.Node) bool {
		if m.Kind == topology.KindSupply {
			if p, ok := s.Server(m.ServerID).SupplyACPower(m.ID); ok {
				load += p
			}
		}
		return true
	})
	return load
}

// TestNodeLoadMatchesWalk drives random feed failures and restores and
// single-supply state changes through a fleet with one rack too weak for
// its server, which trips and cascades part-way through, and requires
// NodeLoad to equal the walk-and-sum reference exactly for every
// topology node after every step.
func TestNodeLoadMatchesWalk(t *testing.T) {
	topo, servers := mirroredFleet(t, 2, 2, 3, 3000)
	// A rack whose limit is below its server's floor: capping cannot save
	// it, so its breaker trips and fails the supply beneath it.
	y := topo.Root("Y")
	weak := y.AddChild(topology.NewNode("Y-weak", topology.KindCDU, 150))
	weak.AddChild(topology.NewSupply("w-Y", "w", 1))
	topo, err := topology.New(topo.Root("X"), y)
	if err != nil {
		t.Fatal(err)
	}
	servers["w"] = ServerSpec{Priority: 1, Utilization: 1}
	tracker, err := slo.New(slo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Topology: topo, Servers: servers, Policy: core.GlobalPriority, SPO: true, SLO: tracker})
	if err != nil {
		t.Fatal(err)
	}
	var nodeIDs []string
	for _, root := range topo.Roots() {
		root.Walk(func(n *topology.Node) bool {
			nodeIDs = append(nodeIDs, n.ID)
			return true
		})
	}
	supplies := topo.Supplies()
	states := []server.SupplyState{server.SupplyActive, server.SupplyStandby, server.SupplyFailed}
	check := func(step int, op string) {
		t.Helper()
		for _, id := range nodeIDs {
			if got, want := s.NodeLoad(id), walkLoad(s, id); got != want {
				t.Fatalf("step %d after %s: NodeLoad(%s) = %v, walk sums %v", step, op, id, got, want)
			}
		}
		if got := s.NodeLoad("no-such-node"); got != 0 {
			t.Fatalf("step %d: NodeLoad of an unknown node = %v, want 0", step, got)
		}
	}
	rng := rand.New(rand.NewSource(1))
	check(0, "New")
	for step := 1; step <= 400; step++ {
		var op string
		switch r := rng.Intn(10); {
		case r == 0:
			feed := topology.FeedID([]string{"X", "Y"}[rng.Intn(2)])
			s.FailFeed(feed)
			op = "FailFeed " + string(feed)
		case r == 1:
			feed := topology.FeedID([]string{"X", "Y"}[rng.Intn(2)])
			s.RestoreFeed(feed)
			op = "RestoreFeed " + string(feed)
		case r <= 3:
			sup := supplies[rng.Intn(len(supplies))]
			state := states[rng.Intn(len(states))]
			if err := s.SetSupplyState(sup.ID, state); err != nil {
				t.Fatal(err)
			}
			op = "SetSupplyState " + sup.ID + " " + state.String()
		default:
			s.Run(time.Second)
			op = "tick"
		}
		check(step, op)
	}
	if tripped := s.TrippedBreakers(); len(tripped) != 1 || tripped[0] != "Y-weak" {
		t.Fatalf("tripped breakers = %v, want exactly the weak rack", tripped)
	}
}

// TestTickAllocatesNothing requires a simulated second between control
// periods — actuation, sensing, breaker heat, SLO risk and exposure
// scoring — to allocate nothing once the plant has settled.
func TestTickAllocatesNothing(t *testing.T) {
	topo, servers := mirroredFleet(t, 2, 3, 4, 1800)
	tracker, err := slo.New(slo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Topology: topo, Servers: servers, Policy: core.GlobalPriority, SPO: true, SLO: tracker})
	if err != nil {
		t.Fatal(err)
	}
	s.FailFeed("X")
	s.Run(4*DefaultControlPeriod + time.Second) // settle; stop one tick past a period
	// One warm-up call plus six measured: the seven ticks up to the next
	// control period.
	start := s.Now()
	if allocs := testing.AllocsPerRun(6, func() { s.Run(time.Second) }); allocs != 0 {
		t.Errorf("non-control tick allocates %v times, want 0", allocs)
	}
	if end := s.Now(); start%DefaultControlPeriod != time.Second || end != start+DefaultControlPeriod-time.Second {
		t.Fatalf("measured ticks [%v, %v) do not lie between control periods", start, end)
	}
	if tripped := s.TrippedBreakers(); len(tripped) > 0 {
		t.Fatalf("breakers tripped: %v", tripped)
	}
}
