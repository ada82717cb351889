package server

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"capmaestro/internal/power"
)

func dualCorded(id string) Config {
	return Config{
		ID:    id,
		Model: power.DefaultServerModel(),
		Supplies: []Supply{
			{ID: id + "-psA", Split: 0.5},
			{ID: id + "-psB", Split: 0.5},
		},
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty id", Config{Model: power.DefaultServerModel(), Supplies: []Supply{{ID: "a", Split: 1}}}},
		{"bad model", Config{ID: "s", Model: power.ServerModel{Idle: 500, CapMin: 270, CapMax: 490},
			Supplies: []Supply{{ID: "a", Split: 1}}}},
		{"no supplies", Config{ID: "s", Model: power.DefaultServerModel()}},
		{"empty supply id", Config{ID: "s", Model: power.DefaultServerModel(),
			Supplies: []Supply{{ID: "", Split: 1}}}},
		{"duplicate supply", Config{ID: "s", Model: power.DefaultServerModel(),
			Supplies: []Supply{{ID: "a", Split: 0.5}, {ID: "a", Split: 0.5}}}},
		{"bad split", Config{ID: "s", Model: power.DefaultServerModel(),
			Supplies: []Supply{{ID: "a", Split: 1.5}}}},
		{"splits not one", Config{ID: "s", Model: power.DefaultServerModel(),
			Supplies: []Supply{{ID: "a", Split: 0.4}, {ID: "b", Split: 0.4}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestUncappedPowerTracksUtilization(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(1)
	if got := s.ACPower(); !power.ApproxEqual(got, 490, 0.5) {
		t.Errorf("uncapped full-load AC power = %v, want ~490", got)
	}
	if s.ThrottleLevel() != 0 {
		t.Errorf("uncapped throttle = %v, want 0", s.ThrottleLevel())
	}
	s.SetUtilization(0)
	if got := s.ACPower(); !power.ApproxEqual(got, 160, 0.5) {
		t.Errorf("idle AC power = %v, want ~160", got)
	}
	s.SetUtilization(-3) // clamps
	if s.Utilization() != 0 {
		t.Error("utilization should clamp to 0")
	}
	s.SetUtilization(9)
	if s.Utilization() != 1 {
		t.Error("utilization should clamp to 1")
	}
}

func TestDCCapReducesPower(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(1)
	lo, hi := s.DCCapRange()
	if lo >= hi {
		t.Fatalf("cap range [%v, %v] inverted", lo, hi)
	}
	mid := (lo + hi) / 2
	s.SetDCCap(mid)
	// Let actuation settle.
	for i := 0; i < 30; i++ {
		s.Step(time.Second)
	}
	if got := s.DCPower(); !power.ApproxEqual(got, mid, 0.5) {
		t.Errorf("DC power = %v, want cap %v", got, mid)
	}
	if th := s.ThrottleLevel(); th <= 0 || th >= 1 {
		t.Errorf("throttle = %v, want in (0,1)", th)
	}
	if pl := s.PerfLevel(); math.Abs(pl+s.ThrottleLevel()-1) > 1e-12 {
		t.Errorf("perf level %v inconsistent with throttle", pl)
	}
}

func TestCapClipsToControllableRange(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	lo, hi := s.DCCapRange()
	s.SetDCCap(0)
	if s.TargetDCCap() != lo {
		t.Errorf("cap below range: target %v, want clip to %v", s.TargetDCCap(), lo)
	}
	s.SetDCCap(99999)
	if s.TargetDCCap() != hi {
		t.Errorf("cap above range: target %v, want clip to %v", s.TargetDCCap(), hi)
	}
}

func TestCapCannotPushBelowFloor(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(1)
	lo, _ := s.DCCapRange()
	s.SetDCCap(lo)
	for i := 0; i < 30; i++ {
		s.Step(time.Second)
	}
	if got := s.ACPower(); !power.ApproxEqual(got, 270, 1) {
		t.Errorf("fully throttled AC power = %v, want ~CapMin 270", got)
	}
	if th := s.ThrottleLevel(); math.Abs(th-1) > 1e-6 {
		t.Errorf("throttle at floor = %v, want 1", th)
	}
}

func TestLightLoadBelowCapMinNotThrottled(t *testing.T) {
	// A server idling below CapMin cannot be throttled further; throttle
	// level must read 0 so the demand estimator sees true demand.
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(0.1)
	lo, _ := s.DCCapRange()
	s.SetDCCap(lo)
	for i := 0; i < 30; i++ {
		s.Step(time.Second)
	}
	demand := s.ACDemand() // 160 + 0.1*330 = 193 < 270
	if demand >= 270 {
		t.Fatalf("test setup: demand %v should be below CapMin", demand)
	}
	if got := s.ACPower(); !power.ApproxEqual(got, demand, 2) {
		t.Errorf("light-load power = %v, want demand %v", got, demand)
	}
}

func TestActuationSettlesWithinSixSeconds(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(1)
	lo, hi := s.DCCapRange()
	target := lo + (hi-lo)/4
	s.SetDCCap(target)
	for i := 0; i < 6; i++ {
		s.Step(time.Second)
	}
	gap := math.Abs(float64(s.EffectiveDCCap() - target))
	full := math.Abs(float64(hi - target))
	if gap > 0.05*full {
		t.Errorf("after 6s, cap gap %.1fW is more than 5%% of step %.1fW", gap, full)
	}
}

func TestStepNonPositiveDurationNoOp(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetDCCap(300)
	before := s.EffectiveDCCap()
	s.Step(0)
	s.Step(-time.Second)
	if s.EffectiveDCCap() != before {
		t.Error("non-positive step should not advance actuation")
	}
}

func TestSupplySplitMismatch(t *testing.T) {
	s := MustNew(Config{
		ID:    "s1",
		Model: power.DefaultServerModel(),
		Supplies: []Supply{
			{ID: "psA", Split: 0.35},
			{ID: "psB", Split: 0.65}, // the paper's worst observed mismatch
		},
	})
	s.SetUtilization(1)
	a, _ := s.SupplyACPower("psA")
	b, _ := s.SupplyACPower("psB")
	total := s.ACPower()
	if !power.ApproxEqual(a+b, total, 1e-6) {
		t.Errorf("supply powers %v+%v should sum to %v", a, b, total)
	}
	if !power.ApproxEqual(b, total*0.65, 1e-6) {
		t.Errorf("psB share = %v, want 65%% of %v", b, total)
	}
}

func TestSupplyFailureShiftsLoad(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(1)
	if err := s.SetSupplyState("s1-psA", SupplyFailed); err != nil {
		t.Fatal(err)
	}
	if s.WorkingSupplies() != 1 {
		t.Errorf("working supplies = %d, want 1", s.WorkingSupplies())
	}
	a, _ := s.SupplyACPower("s1-psA")
	b, _ := s.SupplyACPower("s1-psB")
	if a != 0 {
		t.Errorf("failed supply carries %v, want 0", a)
	}
	if !power.ApproxEqual(b, s.ACPower(), 1e-6) {
		t.Errorf("surviving supply carries %v, want full %v", b, s.ACPower())
	}
	r, ok := s.SupplyShare("s1-psB")
	if !ok || r != 1 {
		t.Errorf("surviving share = %v, want 1", r)
	}
}

func TestStandbySupplyCarriesNothing(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(0.2)
	if err := s.SetSupplyState("s1-psB", SupplyStandby); err != nil {
		t.Fatal(err)
	}
	b, _ := s.SupplyACPower("s1-psB")
	if b != 0 {
		t.Errorf("standby supply carries %v, want 0", b)
	}
}

func TestAllSuppliesFailed(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetSupplyState("s1-psA", SupplyFailed)
	s.SetSupplyState("s1-psB", SupplyFailed)
	a, _ := s.SupplyACPower("s1-psA")
	b, _ := s.SupplyACPower("s1-psB")
	if a != 0 || b != 0 {
		t.Error("failed supplies must carry no load")
	}
}

func TestUnknownSupply(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	if err := s.SetSupplyState("nope", SupplyFailed); err == nil {
		t.Error("expected error for unknown supply")
	}
	if _, ok := s.SupplyACPower("nope"); ok {
		t.Error("expected !ok for unknown supply")
	}
	if _, ok := s.SupplyShare("nope"); ok {
		t.Error("expected !ok for unknown supply share")
	}
}

func TestReadSensorsConsistent(t *testing.T) {
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(0.8)
	var r Reading
	s.ReadSensors(&r)
	if len(r.SupplyAC) != 2 {
		t.Fatalf("sensor supplies = %d, want 2", len(r.SupplyAC))
	}
	var sum power.Watts
	for _, v := range r.SupplyAC {
		sum += v
	}
	if !power.ApproxEqual(sum, r.TotalAC, 1e-9) {
		t.Error("TotalAC should equal sum of supply readings")
	}
	if !power.ApproxEqual(r.TotalAC, s.ACPower(), 1e-6) {
		t.Errorf("noise-free sensors should match true power: %v vs %v", r.TotalAC, s.ACPower())
	}
	if r.Throttle != s.ThrottleLevel() {
		t.Error("throttle reading mismatch")
	}
}

func TestReadSensorsReusesReading(t *testing.T) {
	cfg := dualCorded("s1")
	cfg.NoiseSigma, cfg.NoiseSeed = 2, 7
	s := MustNew(cfg)
	s.SetUtilization(0.7)
	var r Reading
	s.ReadSensors(&r)
	buf := &r.SupplyAC[0]
	if allocs := testing.AllocsPerRun(100, func() { s.ReadSensors(&r) }); allocs != 0 {
		t.Errorf("ReadSensors into a reused reading allocates %v times, want 0", allocs)
	}
	if &r.SupplyAC[0] != buf || len(r.SupplyAC) != 2 {
		t.Error("ReadSensors did not reuse the reading's SupplyAC")
	}
	// A longer slice left over from another server is cut to this one's
	// supplies.
	r.SupplyAC = make([]power.Watts, 5)
	s.ReadSensors(&r)
	if len(r.SupplyAC) != 2 {
		t.Errorf("reading has %d supplies, want 2", len(r.SupplyAC))
	}
}

func TestSensorNoiseIsBoundedAndReproducible(t *testing.T) {
	mk := func() *Server {
		cfg := dualCorded("s1")
		cfg.NoiseSigma = 2
		cfg.NoiseSeed = 42
		return MustNew(cfg)
	}
	s1, s2 := mk(), mk()
	s1.SetUtilization(1)
	s2.SetUtilization(1)
	var r1, r2 Reading
	s1.ReadSensors(&r1)
	s2.ReadSensors(&r2)
	for i, v := range r1.SupplyAC {
		id := s1.SupplyIDs()[i]
		if r2.SupplyAC[i] != v {
			t.Error("same seed should reproduce identical noise")
		}
		truth, _ := s1.SupplyACPower(id)
		if math.Abs(float64(v-truth)) > 12 { // 6 sigma
			t.Errorf("noise on %s implausibly large: %v vs %v", id, v, truth)
		}
	}
}

func TestSupplyIDsAndAccessors(t *testing.T) {
	s := MustNew(dualCorded("sX"))
	ids := s.SupplyIDs()
	if len(ids) != 2 || ids[0] != "sX-psA" || ids[1] != "sX-psB" {
		t.Errorf("supply IDs = %v", ids)
	}
	if s.ID() != "sX" || s.Priority() != PriorityLow {
		t.Error("accessors wrong")
	}
	if s.Model() != power.DefaultServerModel() {
		t.Error("model accessor wrong")
	}
	if s.Efficiency() == nil || s.RatedDC() <= 0 {
		t.Error("efficiency accessors wrong")
	}
	if got := s.Supplies(); len(got) != 2 {
		t.Error("Supplies() wrong")
	}
	if SupplyActive.String() != "active" || SupplyFailed.String() != "failed" ||
		SupplyStandby.String() != "standby" || SupplyState(9).String() != "state(9)" {
		t.Error("state strings wrong")
	}
}

func TestThrottleMonotoneInCap(t *testing.T) {
	// Lower caps never decrease the throttle level.
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(1)
	lo, hi := s.DCCapRange()
	f := func(a, b float64) bool {
		ca := lo + power.Watts(math.Abs(math.Mod(a, 1)))*(hi-lo)
		cb := lo + power.Watts(math.Abs(math.Mod(b, 1)))*(hi-lo)
		if ca > cb {
			ca, cb = cb, ca
		}
		s.SetDCCap(ca)
		for i := 0; i < 40; i++ {
			s.Step(time.Second)
		}
		ta := s.ThrottleLevel()
		s.SetDCCap(cb)
		for i := 0; i < 40; i++ {
			s.Step(time.Second)
		}
		tb := s.ThrottleLevel()
		return ta >= tb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDemandEstimatorIntegration(t *testing.T) {
	// Drive the simulated server through throttled operation and confirm
	// the Section 5 regression recovers the true demand from its sensors.
	s := MustNew(dualCorded("s1"))
	s.SetUtilization(1) // true AC demand ~490
	est := power.NewDemandEstimator(power.DefaultDemandWindow)
	lo, hi := s.DCCapRange()
	caps := []power.Watts{hi, lo + (hi-lo)/2, lo + (hi-lo)/4, lo + (hi-lo)/3}
	var r Reading
	for _, c := range caps {
		s.SetDCCap(c)
		for i := 0; i < 8; i++ {
			s.Step(time.Second)
			s.ReadSensors(&r)
			est.Observe(r.TotalAC, r.Throttle)
		}
	}
	d, ok := est.Demand()
	if !ok {
		t.Fatal("no demand estimate")
	}
	if math.Abs(float64(d)-490) > 15 {
		t.Errorf("estimated demand %v, want within 15 W of 490", d)
	}
}
