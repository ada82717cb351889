package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/power"
)

var updateEndState = flag.Bool("update", false, "rewrite testdata/endstate/*.golden")

const (
	esRacks   = 12
	esFanOut  = 3
	esPeriods = 24
)

// esPlane is one faulted hierarchy under test: rack workers at the
// bottom, aggregator tiers bottom-up, the room on top, and the fault
// injector wrapped around every client a tier calls.
type esPlane struct {
	room     *RoomWorker
	roomKids []string
	tiers    [][]*Aggregator
	racks    []*RackWorker
	leaves   []*core.Node
	faults   map[string]*FaultyClient
	rates    map[string]float64 // each client's base error rate
	rng      *rand.Rand
}

// newESPlane builds a levels-deep hierarchy over esRacks in-process racks,
// chunked by sorted ID as BuildHierarchy does, but with a seeded
// FaultyClient between every tier and each of its children — racks and
// aggregators alike — so every tier, the room included, sees failed
// gathers and pushes.
func newESPlane(t *testing.T, levels int, policy core.Policy, failsafe power.Watts, seed int64) *esPlane {
	t.Helper()
	p := &esPlane{faults: make(map[string]*FaultyClient), rates: make(map[string]float64), rng: rand.New(rand.NewSource(seed))}
	opts := []Option{WithDigests(true)}
	if failsafe > 0 {
		opts = append(opts, WithFailsafeBudget(failsafe))
	}
	wrap := func(id string, c RackClient) RackClient {
		f := NewFaultyClient(c, seed*1000+int64(len(p.faults)))
		p.rates[id] = []float64{0, 0, 0.1, 0.25}[p.rng.Intn(4)]
		f.SetErrorRate(p.rates[id])
		p.faults[id] = f
		return f
	}
	var ids []string
	clients := make(map[string]RackClient)
	for r := 0; r < esRacks; r++ {
		id := fmt.Sprintf("es%02d", r)
		leaves := make([]*core.Node, 4)
		for s := range leaves {
			sid := fmt.Sprintf("%s-s%d", id, s)
			leaves[s] = core.NewLeaf(sid, core.SupplyLeaf{
				SupplyID: sid, ServerID: sid, Priority: core.Priority(p.rng.Intn(3)), Share: 1,
				CapMin: 270, CapMax: 490, Demand: power.Watts(250 + p.rng.Intn(240)),
			})
		}
		p.leaves = append(p.leaves, leaves...)
		w, err := NewRackWorker(id, core.NewShifting(id, 1700, leaves...), policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.racks = append(p.racks, w)
		ids = append(ids, id)
		clients[id] = wrap(id, LocalClient{Worker: w})
	}
	for level := 1; level <= levels-2; level++ {
		var tier []*Aggregator
		var next []string
		nextClients := make(map[string]RackClient)
		for gi := 0; gi*esFanOut < len(ids); gi++ {
			chunk := ids[gi*esFanOut : min((gi+1)*esFanOut, len(ids))]
			proxies := make([]*core.Node, len(chunk))
			children := make(map[string]RackClient, len(chunk))
			for i, id := range chunk {
				proxies[i] = core.NewProxy(id, core.NewSummary())
				children[id] = clients[id]
			}
			aggID := fmt.Sprintf("l%d-%d", level, gi)
			var limit power.Watts
			if level == 1 {
				limit = power.Watts(len(chunk)) * 1450
			}
			a, err := NewAggregator(core.NewShifting(aggID, limit, proxies...), policy, children,
				append(opts, WithHierarchyLevel(level))...)
			if err != nil {
				t.Fatal(err)
			}
			tier = append(tier, a)
			next = append(next, aggID)
			nextClients[aggID] = wrap(aggID, a)
		}
		p.tiers = append(p.tiers, tier)
		ids, clients = next, nextClients
	}
	proxies := make([]*core.Node, len(ids))
	for i, id := range ids {
		proxies[i] = core.NewProxy(id, core.NewSummary())
	}
	room, err := NewRoomWorker(core.NewShifting("room", 0, proxies...), esRacks*1200, policy, clients, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p.room, p.roomKids = room, ids
	return p
}

// esCounts is PeriodStats without its timings.
type esCounts struct {
	GatherErrors int `json:"gather_errors"`
	ApplyErrors  int `json:"apply_errors"`
	BudgetsHeld  int `json:"budgets_held"`
	RacksServed  int `json:"racks_served"`
}

func countsOf(s PeriodStats) esCounts {
	return esCounts{s.GatherErrors, s.ApplyErrors, s.BudgetsHeld, s.RacksServed}
}

// esTier is one tier's end state after a period: its counts and the
// held, stale (consecutive failed gathers) and never-seen children.
type esTier struct {
	LastBudget *power.Watts   `json:"last_budget,omitempty"`
	Stats      esCounts       `json:"stats"`
	Held       []string       `json:"held"`
	Stale      map[string]int `json:"stale"`
	NeverSeen  []string       `json:"never_seen"`
}

// esFleet is the room's merged fleet digest without gather latencies.
type esFleet struct {
	Racks             int                `json:"racks"`
	PowerW            float64            `json:"power_watts"`
	RequestW          float64            `json:"request_watts"`
	CapMinW           float64            `json:"cap_min_watts"`
	BudgetW           float64            `json:"budget_watts"`
	HeadroomW         float64            `json:"headroom_watts"`
	WorstHeadroomW    float64            `json:"worst_headroom_watts"`
	WorstHeadroomRack string             `json:"worst_headroom_rack"`
	ViolatingRacks    int                `json:"violating_racks"`
	ViolationW        float64            `json:"violation_watts"`
	Outliers          []fleetobs.Outlier `json:"outliers"`
	Levels            [][5]int           `json:"levels"` // level, workers, gather errors, stale, held
}

type esPeriod struct {
	Period      int                    `json:"period"`
	RackBudgets map[string]power.Watts `json:"rack_budgets"`
	Tiers       map[string]esTier      `json:"tiers"`
	Fleet       esFleet                `json:"fleet"`
}

// snapshot reads every tier's end state between periods.
func (p *esPlane) snapshot(period int, roomStats PeriodStats) esPeriod {
	out := esPeriod{Period: period, RackBudgets: make(map[string]power.Watts), Tiers: make(map[string]esTier)}
	for _, w := range p.racks {
		out.RackBudgets[w.ID()] = w.LastBudget()
	}
	room := esTier{Stats: countsOf(roomStats), Stale: map[string]int{}, Held: []string{}, NeverSeen: []string{}}
	for id, f := range p.room.RackFreshness() {
		if f.Held {
			room.Held = append(room.Held, id)
		}
		if f.StalePeriods > 0 {
			room.Stale[id] = f.StalePeriods
		}
		if !f.EverGathered {
			room.NeverSeen = append(room.NeverSeen, id)
		}
	}
	sort.Strings(room.Held)
	sort.Strings(room.NeverSeen)
	out.Tiers["room"] = room
	for _, tier := range p.tiers {
		for _, a := range tier {
			b := a.LastBudget()
			v := esTier{LastBudget: &b, Stats: countsOf(a.LastStats()), Stale: map[string]int{}, Held: []string{}, NeverSeen: []string{}}
			a.mu.Lock()
			for i, id := range a.childList {
				c := a.view[i]
				if c.held || !c.seen {
					v.Held = append(v.Held, id)
				}
				if c.stale > 0 {
					v.Stale[id] = c.stale
				}
				if !c.seen {
					v.NeverSeen = append(v.NeverSeen, id)
				}
			}
			a.mu.Unlock()
			out.Tiers[a.ID()] = v
		}
	}
	if rep, ok := p.room.FleetReport(); ok {
		d := rep.Fleet
		out.Fleet = esFleet{
			Racks: d.Racks, PowerW: d.PowerW, RequestW: d.RequestW, CapMinW: d.CapMinW,
			BudgetW: d.BudgetW, HeadroomW: d.HeadroomW, WorstHeadroomW: d.WorstHeadroomW,
			WorstHeadroomRack: d.WorstHeadroomRack, ViolatingRacks: d.ViolatingRacks,
			ViolationW: d.ViolationW, Outliers: d.Outliers, Levels: [][5]int{},
		}
		for _, l := range d.Levels {
			out.Fleet.Levels = append(out.Fleet.Levels, [5]int{l.Level, l.Workers, l.GatherErrors, l.Stale, l.Held})
		}
	}
	return out
}

// run drives esPeriods control periods. Before each one a seeded share
// of the leaves draw new demand, and the fault schedule moves: one child
// of the room and one rack are dark from the start (never gathered, so
// held), one rack goes dark mid-run long enough to pass the staleness
// bound and then recovers, and on deeper hierarchies an aggregator does
// the same later on.
func (p *esPlane) run(t *testing.T) []esPeriod {
	t.Helper()
	ids := make([]string, 0, len(p.faults))
	for id := range p.faults {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	pick := func(prefix string) string {
		var c []string
		for _, id := range ids {
			if strings.HasPrefix(id, prefix) {
				c = append(c, id)
			}
		}
		return c[p.rng.Intn(len(c))]
	}
	roomChild := p.roomKids[p.rng.Intn(len(p.roomKids))]
	darkRack, flakyRack := pick("es"), pick("es")
	flakyAgg := ""
	if len(p.tiers) > 0 {
		flakyAgg = pick("l")
	}
	set := func(id string, rate float64) {
		if id != "" {
			p.faults[id].SetErrorRate(rate)
		}
	}
	var out []esPeriod
	for period := 0; period < esPeriods; period++ {
		switch period {
		case 0:
			set(roomChild, 1)
			set(darkRack, 1)
		case 3:
			set(roomChild, p.rates[roomChild])
		case 5:
			set(darkRack, p.rates[darkRack])
		case 7:
			set(flakyRack, 1)
		case 13:
			set(flakyRack, p.rates[flakyRack])
		case 15:
			set(flakyAgg, 1)
		case 21:
			set(flakyAgg, p.rates[flakyAgg])
		}
		for _, n := range p.leaves {
			if p.rng.Intn(3) == 0 {
				n.Leaf.Demand = power.Watts(250 + p.rng.Intn(240))
			}
		}
		_, stats, err := p.room.RunPeriod(context.Background())
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		out = append(out, p.snapshot(period, stats))
	}
	return out
}

// TestControlPlaneEndStateGolden pins what the tiers enforce: per period,
// every rack's last received budget, every aggregator's LastBudget, each
// tier's held, stale and never-seen children and its PeriodStats counts,
// and the room's fleet-digest sums — for 2-, 3- and 4-level hierarchies
// under three policies, with seeded demand and seeded gather and push
// faults at every tier, one JSON line per period. A refactor of the tiers
// must leave these bytes alone; encoding/json writes the shortest float
// that round-trips, so equal bytes mean bit-identical budgets. Regenerate
// with `go test ./internal/controlplane/ -run ControlPlaneEndStateGolden
// -update` only when a change means to alter what the tiers enforce.
func TestControlPlaneEndStateGolden(t *testing.T) {
	policies := []struct {
		name   string
		policy core.Policy
	}{{"none", core.NoPriority}, {"local", core.LocalPriority}, {"global", core.GlobalPriority}}
	for levels := 2; levels <= 4; levels++ {
		for pi, pol := range policies {
			name := fmt.Sprintf("l%d-%s", levels, pol.name)
			levels, pol, seed := levels, pol, int64(levels*10+pi+1)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var failsafe power.Watts
				if levels == 3 {
					failsafe = 900
				}
				var got []byte
				for _, rec := range newESPlane(t, levels, pol.policy, failsafe, seed).run(t) {
					line, err := json.Marshal(rec)
					if err != nil {
						t.Fatal(err)
					}
					got = append(append(got, line...), '\n')
				}
				golden := filepath.Join("testdata", "endstate", name+".golden")
				if *updateEndState {
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
					t.Fatalf("control-plane end state drifted from %s:\ngot:\n%s", golden, got)
				}
			})
		}
	}
}
