package capping

import (
	"math"
	"testing"
	"time"

	"capmaestro/internal/power"
	"capmaestro/internal/server"
)

func testServer(t *testing.T, splitA float64) *server.Server {
	t.Helper()
	return server.MustNew(server.Config{
		ID:    "s1",
		Model: power.DefaultServerModel(),
		Supplies: []server.Supply{
			{ID: "psA", Split: splitA},
			{ID: "psB", Split: 1 - splitA},
		},
	})
}

// runLoop emulates the paper's cadence: per-second sensing, one control
// iteration per 8-second period, for the given number of periods.
func runLoop(c *Controller, srv *server.Server, periods int) {
	for p := 0; p < periods; p++ {
		for s := 0; s < 8; s++ {
			srv.Step(time.Second)
			c.Sense()
		}
		c.Iterate()
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil node should fail")
	}
	srv := testServer(t, 0.5)
	if _, err := New(srv, Config{K: 1.5}); err == nil {
		t.Error("K > 1 should fail")
	}
	if _, err := New(srv, Config{K: -0.5}); err == nil {
		t.Error("K < 0 should fail")
	}
	if _, err := New(srv, Config{Gain: 2}); err == nil {
		t.Error("gain > 1 should fail")
	}
	if _, err := New(srv, Config{Gain: -1}); err == nil {
		t.Error("gain < 0 should fail")
	}
	if _, err := New(srv, Config{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(nil, Config{})
}

func TestUnbudgetedServerRunsUncapped(t *testing.T) {
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	runLoop(c, srv, 4)
	if got := srv.ACPower(); !power.ApproxEqual(got, 490, 1) {
		t.Errorf("unbudgeted power = %v, want uncapped ~490", got)
	}
}

func TestEnforcesSingleSupplyBudget(t *testing.T) {
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psB", 200)
	runLoop(c, srv, 6)
	b, _ := srv.SupplyACPower("psB")
	if b > 200+2 {
		t.Errorf("psB power %v exceeds 200 W budget", b)
	}
	if b < 190 {
		t.Errorf("psB power %v leaves too much budget unused", b)
	}
}

func TestMostConstrainedSupplyWins(t *testing.T) {
	// Reproduces the Figure 5 scenario: budget PS2 to 200 W, then give PS1
	// an even tighter 150 W budget; the controller must always satisfy the
	// more constrained supply.
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psA", 400)
	c.SetBudget("psB", 200)
	runLoop(c, srv, 6)
	bB, _ := srv.SupplyACPower("psB")
	if bB > 202 {
		t.Errorf("phase 1: psB %v exceeds 200 W", bB)
	}
	c.SetBudget("psA", 150)
	runLoop(c, srv, 6)
	bA, _ := srv.SupplyACPower("psA")
	bB, _ = srv.SupplyACPower("psB")
	if bA > 152 {
		t.Errorf("phase 2: psA %v exceeds 150 W", bA)
	}
	if bB > 200 {
		t.Errorf("phase 2: psB %v should drop with total load", bB)
	}
}

func TestSettlesWithinTwoControlPeriods(t *testing.T) {
	// Paper: "the power settles to within 5% of the assigned budgets
	// within two control periods (16 seconds)".
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	runLoop(c, srv, 2) // warm up uncapped
	c.SetBudget("psB", 200)
	runLoop(c, srv, 2) // two control periods
	b, _ := srv.SupplyACPower("psB")
	if math.Abs(float64(b)-200) > 0.05*200 {
		t.Errorf("after 16s psB = %v, want within 5%% of 200", b)
	}
}

func TestUnequalSplitRespectsTightBudget(t *testing.T) {
	// With a 65/35 split, the B side draws 65% of server power; a tight
	// B-side budget must drive the whole server down.
	srv := testServer(t, 0.35)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psA", 400)
	c.SetBudget("psB", 220)
	runLoop(c, srv, 8)
	bB, _ := srv.SupplyACPower("psB")
	if bB > 222 {
		t.Errorf("psB %v exceeds 220 W", bB)
	}
	total := srv.ACPower()
	want := 220 / 0.65
	if math.Abs(float64(total)-want) > 8 {
		t.Errorf("total power %v, want ~%0.f (budget/split)", total, want)
	}
}

func TestBudgetBelowFloorClipsAtCapMin(t *testing.T) {
	// A budget below what Pcap_min allows cannot be enforced; the
	// controller clips at the bottom of the controllable range rather than
	// winding up.
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psB", 50) // 50 W << 0.5 × 270
	runLoop(c, srv, 10)
	if got := srv.ACPower(); !power.ApproxEqual(got, 270, 2) {
		t.Errorf("power = %v, want clipped at CapMin 270", got)
	}
	lo, _ := srv.DCCapRange()
	if c.DesiredDCCap() != lo {
		t.Errorf("integrator %v should sit at range floor %v (anti-windup)", c.DesiredDCCap(), lo)
	}
}

func TestRecoversAfterBudgetRaised(t *testing.T) {
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psB", 150)
	runLoop(c, srv, 8)
	capped := srv.ACPower()
	if capped > 320 {
		t.Fatalf("setup: power %v should be capped", capped)
	}
	c.SetBudget("psB", Unbudgeted)
	runLoop(c, srv, 8)
	if got := srv.ACPower(); !power.ApproxEqual(got, 490, 2) {
		t.Errorf("power = %v, want recovery to ~490 after budget removed", got)
	}
}

func TestFailedSupplyIgnoredByController(t *testing.T) {
	// When the A cord fails, its (now meaningless) budget must not freeze
	// the controller; the surviving supply's budget governs.
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psA", 100)
	c.SetBudget("psB", 300)
	if err := srv.SetSupplyState("psA", server.SupplyFailed); err != nil {
		t.Fatal(err)
	}
	runLoop(c, srv, 8)
	bB, _ := srv.SupplyACPower("psB")
	if bB > 302 {
		t.Errorf("surviving supply %v exceeds its 300 W budget", bB)
	}
	if bB < 290 {
		t.Errorf("surviving supply %v under-uses its 300 W budget", bB)
	}
}

func TestNegativeBudgetClampsToZero(t *testing.T) {
	srv := testServer(t, 0.5)
	c := MustNew(srv, Config{})
	c.SetBudget("psA", -10)
	if got := c.Budget("psA"); got != 0 {
		t.Errorf("negative budget stored as %v, want 0", got)
	}
}

func TestBudgetAccessors(t *testing.T) {
	srv := testServer(t, 0.5)
	c := MustNew(srv, Config{})
	if c.Budget("psA") != Unbudgeted {
		t.Error("default budget should be Unbudgeted")
	}
	c.SetBudget("psB", 250)
	c.SetBudget("psA", 100)
	got := c.BudgetedSupplies()
	if len(got) != 2 || got[0] != "psA" || got[1] != "psB" {
		t.Errorf("budgeted supplies = %v", got)
	}
	c.SetBudget("psA", Unbudgeted)
	if got := c.BudgetedSupplies(); len(got) != 1 || got[0] != "psB" {
		t.Errorf("after removal: %v", got)
	}
}

func TestSetBudgetOnUnknownSupplyIsNoOp(t *testing.T) {
	// Supplies configured out of ID order: BudgetedSupplies must still
	// list them sorted.
	srv := server.MustNew(server.Config{
		ID:    "s1",
		Model: power.DefaultServerModel(),
		Supplies: []server.Supply{
			{ID: "psB", Split: 0.5},
			{ID: "psA", Split: 0.5},
		},
	})
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("nope", 100)
	if got := c.Budget("nope"); got != Unbudgeted {
		t.Errorf("unknown supply's budget = %v, want Unbudgeted", got)
	}
	if got := c.BudgetedSupplies(); len(got) != 0 {
		t.Errorf("budgeted supplies after an unknown-supply budget = %v, want none", got)
	}
	runLoop(c, srv, 4)
	if got := srv.ACPower(); !power.ApproxEqual(got, 490, 1) {
		t.Errorf("power under an unknown-supply budget = %v, want uncapped ~490", got)
	}
	c.SetBudget("psB", 250)
	c.SetBudget("nope", 100)
	c.SetBudget("psA", 240)
	if got := c.BudgetedSupplies(); len(got) != 2 || got[0] != "psA" || got[1] != "psB" {
		t.Errorf("budgeted supplies = %v, want [psA psB]", got)
	}
}

func TestSenseIterateAllocatesNothing(t *testing.T) {
	srv := testServer(t, 0.6)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psA", 200)
	c.SetBudget("psB", 150)
	runLoop(c, srv, 2)
	allocs := testing.AllocsPerRun(100, func() {
		srv.Step(time.Second)
		c.Sense()
		c.Iterate()
	})
	if allocs != 0 {
		t.Errorf("Sense + Iterate allocates %v times, want 0", allocs)
	}
}

func TestIterateWithoutSenseTakesFreshReading(t *testing.T) {
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psB", 200)
	// Call Iterate directly with no prior Sense: must not panic and must
	// begin converging.
	for i := 0; i < 10; i++ {
		c.Iterate()
		for s := 0; s < 8; s++ {
			srv.Step(time.Second)
		}
	}
	b, _ := srv.SupplyACPower("psB")
	if b > 205 {
		t.Errorf("psB %v exceeds budget without explicit Sense", b)
	}
}

func TestDemandEstimateWhileCapped(t *testing.T) {
	srv := testServer(t, 0.5)
	srv.SetUtilization(1)
	c := MustNew(srv, Config{})
	c.SetBudget("psB", 180)
	runLoop(c, srv, 6)
	d, ok := c.Demand()
	if !ok {
		t.Fatal("no demand estimate")
	}
	if math.Abs(float64(d)-490) > 20 {
		t.Errorf("capped-demand estimate %v, want ~490", d)
	}
}

func TestNoisySensorsStillConverge(t *testing.T) {
	srv := server.MustNew(server.Config{
		ID:    "s1",
		Model: power.DefaultServerModel(),
		Supplies: []server.Supply{
			{ID: "psA", Split: 0.45},
			{ID: "psB", Split: 0.55},
		},
		NoiseSigma: 2,
		NoiseSeed:  99,
	})
	srv.SetUtilization(1)
	c := MustNew(srv, Config{Gain: 0.7})
	c.SetBudget("psB", 210)
	runLoop(c, srv, 12)
	b, _ := srv.SupplyACPower("psB")
	if math.Abs(float64(b)-210) > 12 {
		t.Errorf("noisy convergence: psB = %v, want ~210", b)
	}
}
