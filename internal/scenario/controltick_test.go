package scenario

import (
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"capmaestro/internal/capping"
	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/scenario/refalloc"
	"capmaestro/internal/sim"
	"capmaestro/internal/topology"
)

// TestControlTickMatchesRefalloc checks every control period the
// simulator runs on its persistent engines against allocators built fresh
// for that period. The trees LastControlTrees returns must hold every live
// supply and no other, under the derated limits tightened by the current
// overlays, as a fresh build would; the budgets applied to every supply
// must equal refalloc's over those trees exactly; and the SPO report and
// the explain records must equal a one-shot
// core.AllocateWithSPOExplained over the same trees. So a rebuild that
// was due and skipped fails, and so does an engine that drifts from a
// freshly built one.
//
// It runs generated seeds 1..8, the scenario library, and a scripted run
// that takes every rebind path: feed failures and restores, a breaker
// cascade, an overlay set and cleared, a priority change, and periods with
// no live tree at all.
func TestControlTickMatchesRefalloc(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := Generate(seed)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			checkControlTicks(t, sc)
		})
	}
	for _, path := range libraryPaths(t) {
		path := path
		t.Run(strings.TrimSuffix(filepath.Base(path), ".yaml"), func(t *testing.T) {
			t.Parallel()
			f, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := f.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			checkControlTicks(t, sc)
		})
	}
	t.Run("scripted", func(t *testing.T) {
		t.Parallel()
		s := checkControlTicks(t, scriptedRebinds())
		if len(s.TrippedBreakers()) == 0 {
			t.Fatal("the weak rack's breaker never tripped: the cascade path went unchecked")
		}
	})
}

// scriptedRebinds is a two-feed scenario whose events walk every way the
// simulator's control trees can change shape, and the in-place edits that
// must not need a rebuild. The Y side of rack 1 is rated below its
// server's floor, so its breaker trips and cascades early in the run.
func scriptedRebinds() *Scenario {
	sc := &Scenario{
		Name: "scripted-rebinds", Policy: "global", SPO: true,
		ControlPeriodSec: 4, DurationSec: 128,
		Topology: TopologySpec{RPPs: []RPPSpec{{
			XRating: 4000, YRating: 4000,
			Racks: []RackSpec{{XRating: 2200, YRating: 2200}, {XRating: 800, YRating: 60}},
		}}},
		Servers: []ServerSpec{
			{ID: "s00", Rack: 0, Priority: 0, XShare: 0.4, Utilization: 0.9},
			{ID: "s01", Rack: 0, Priority: 1, XShare: 0.55, Utilization: 0.8},
			{ID: "s02", Rack: 0, Priority: 0, XShare: 0.6, Utilization: 1},
			{ID: "s03", Rack: 0, Priority: 2, XShare: 1, Utilization: 0.7},
			{ID: "s04", Rack: 1, Priority: 1, XShare: 0.5, Utilization: 0.9},
		},
		Budgets: []FeedBudget{{Feed: FeedX, Watts: 1300}, {Feed: FeedY, Watts: 900}},
	}
	rack := rackID(FeedX, 0, 0)
	sc.Events = []Event{
		{AtSec: 20, Kind: EventFailFeed, Feed: FeedX},
		{AtSec: 32, Kind: EventRestoreFeed, Feed: FeedX},
		{AtSec: 44, Kind: EventSetNodeBudget, Node: rack, Value: 700},
		{AtSec: 56, Kind: EventSetPriority, Server: "s02", Value: 2},
		{AtSec: 64, Kind: EventSetNodeBudget, Node: rack},
		{AtSec: 72, Kind: EventFailFeed, Feed: FeedY},
		{AtSec: 84, Kind: EventRestoreFeed, Feed: FeedY},
		{AtSec: 96, Kind: EventSetUtil, Server: "s01", Value: 0.3},
		{AtSec: 100, Kind: EventFailFeed, Feed: FeedX},
		{AtSec: 104, Kind: EventFailFeed, Feed: FeedY},
		{AtSec: 112, Kind: EventRestoreFeed, Feed: FeedX},
		{AtSec: 112, Kind: EventRestoreFeed, Feed: FeedY},
	}
	return sc
}

// checkControlTicks runs the scenario a second at a time with a flight
// recorder attached and checks every control period as it ends.
func checkControlTicks(t *testing.T, sc *Scenario) *sim.Simulator {
	t.Helper()
	rec := flightrec.NewRecorder(1)
	s, err := sc.BuildSimInstrumented(SimInstruments{FlightRecorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	for sec := 0; sec < sc.DurationSec; sec++ {
		at, trips := s.Now(), len(s.TrippedBreakers())
		s.Run(time.Second)
		if at%s.ControlPeriod() != 0 {
			continue
		}
		when := "t=" + strconv.Itoa(sec) + "s"
		// A trip late in the tick fails supplies after the period ran.
		if len(s.TrippedBreakers()) == trips {
			checkTreeShape(t, s, when)
		}
		checkControlTick(t, s, rec, when)
	}
	return s
}

// checkTreeShape requires the last period's trees to be the ones a fresh
// build from the topology would give for the simulator's current state.
func checkTreeShape(t *testing.T, s *sim.Simulator, when string) {
	t.Helper()
	trees, _, _ := s.LastControlTrees()
	topo := s.Topology()
	inTree := make(map[string]bool)
	for _, tree := range trees {
		tree.Walk(func(n *core.Node) {
			if n.IsLeaf() {
				inTree[n.Leaf.SupplyID] = true
				return
			}
			want := topology.DefaultDerating().Limit(topo.Node(n.ID))
			if math.IsInf(float64(want), 1) {
				want = 0
			}
			if b, ok := s.NodeBudget(n.ID); ok && (want <= 0 || b < want) {
				want = b
			}
			if n.Limit != want {
				t.Fatalf("%s: node %s limit %v, want %v", when, n.ID, n.Limit, want)
			}
		})
	}
	for _, id := range s.ServerIDs() {
		srv := s.Server(id)
		for _, sup := range srv.SupplyIDs() {
			share, _ := srv.SupplyShare(sup)
			if live := share > 0 && !s.FeedFailed(topo.Node(sup).Feed); live != inTree[sup] {
				t.Fatalf("%s: supply %s live = %v, in a control tree = %v", when, sup, live, inTree[sup])
			}
		}
	}
}

// checkControlTick compares the period that just ran with fresh
// allocators over the trees it allocated from.
func checkControlTick(t *testing.T, s *sim.Simulator, rec *flightrec.Recorder, when string) {
	t.Helper()
	trees, budgets, feeds := s.LastControlTrees()
	if len(trees) == 0 {
		if r := s.LastSPOReport(); r != nil {
			t.Fatalf("%s: no live tree, but LastSPOReport = %+v", when, r)
		}
		return
	}
	var (
		ref        []*refalloc.Result
		wantReport *core.SPOReport
		explains   []core.NodeExplain
		err        error
	)
	sink := core.ExplainFunc(func(e core.NodeExplain) { explains = append(explains, e) })
	if s.SPOEnabled() {
		ref, _, err = refalloc.AllocateWithSPO(trees, budgets, s.Policy())
		if err == nil {
			_, wantReport, err = core.AllocateWithSPOExplained(trees, budgets, s.Policy(), sink)
		}
	} else {
		ref, err = refalloc.AllocateAll(trees, budgets, s.Policy())
		if err == nil {
			var f core.FeedSet
			if err = f.Rebind(trees); err == nil {
				f.Run(budgets, s.Policy(), false, sink)
			}
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}

	for i, feed := range feeds {
		if err := diffAllocation(s.LastAllocation(feed), ref[i]); err != nil {
			t.Fatalf("%s: feed %s: LastAllocation: %v", when, feed, err)
		}
	}
	for _, id := range s.ServerIDs() {
		ctl := s.Controller(id)
		for _, sup := range s.Server(id).SupplyIDs() {
			want := capping.Unbudgeted
			for _, r := range ref {
				if b, ok := r.SupplyBudgets[sup]; ok {
					want = b
				}
			}
			if got := ctl.Budget(sup); got != want {
				t.Fatalf("%s: supply %s applied budget %v, refalloc %v", when, sup, got, want)
			}
		}
	}

	if got := s.LastSPOReport(); !reflect.DeepEqual(got, wantReport) {
		t.Fatalf("%s: LastSPOReport = %+v\none-shot: %+v", when, got, wantReport)
	}
	recs := rec.Records()
	if len(recs) == 0 || !reflect.DeepEqual(recs[len(recs)-1].Explains, explains) {
		t.Fatalf("%s: the period's explain records differ from a one-shot allocation's", when)
	}
}
