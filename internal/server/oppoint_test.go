package server

import (
	"math/rand"
	"testing"
	"time"

	"capmaestro/internal/power"
)

// recomputed derives the operating point and per-supply AC draw from
// scratch — from Efficiency, RatedDC, Model and the supply states — the
// way every reader used to before the server kept them as state. supplyAC
// is in Supplies() order.
func recomputed(s *Server) (dc, ac power.Watts, throttle float64, supplyAC []power.Watts) {
	eff, rated, m := s.Efficiency(), s.RatedDC(), s.Model()
	u, unc := s.Utilization(), s.UncontrolledPower()
	demand := eff.ACToDC(m.PowerAt(u)+unc, rated)
	floor := eff.ACToDC(m.Idle+power.Watts(u)*(m.CapMin-m.Idle)+unc, rated)
	dc = power.Max(power.Min(demand, s.EffectiveDCCap()), floor)
	ac = eff.DCToAC(dc, rated)
	if dc < demand && demand > floor {
		throttle = float64((demand - dc) / (demand - floor))
		throttle = max(0, min(1, throttle))
	}
	var sum float64
	for _, sup := range s.Supplies() {
		if sup.State == SupplyActive {
			sum += sup.Split
		}
	}
	for _, sup := range s.Supplies() {
		var share float64
		if sup.State == SupplyActive {
			share = sup.Split / sum
		}
		supplyAC = append(supplyAC, power.Watts(share)*ac)
	}
	return dc, ac, throttle, supplyAC
}

// TestOperatingPointMatchesRecomputation drives random sequences of every
// call that moves a server's inputs — utilization, cap requests, actuation
// steps (with hot-spare toggles), supply failures — and requires each
// reader to equal a from-scratch recomputation exactly after every call.
func TestOperatingPointMatchesRecomputation(t *testing.T) {
	states := []SupplyState{SupplyActive, SupplyStandby, SupplyFailed}
	var stepToggles int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			ID:    "s",
			Model: power.DefaultServerModel(),
			Supplies: []Supply{
				{ID: "a", Split: 0.65},
				{ID: "b", Split: 0.35},
			},
			ActuationTau: time.Duration(1+rng.Intn(4)) * time.Second,
		}
		noisy := seed%2 == 0
		if noisy {
			cfg.NoiseSigma, cfg.NoiseSeed = 3, seed
		}
		if seed%3 == 0 {
			cfg.UncontrolledPower = 40
		}
		s := MustNew(cfg)
		if err := s.ConfigureHotSpare("b", 250, 300); err != nil {
			t.Fatal(err)
		}
		ids := s.SupplyIDs()
		var r Reading // reused across checks, as a capping controller does
		check := func(op string) {
			t.Helper()
			dc, ac, th, supplyAC := recomputed(s)
			if s.DCPower() != dc || s.ACPower() != ac || s.ThrottleLevel() != th {
				t.Fatalf("seed %d after %s: (dc, ac, throttle) = (%v, %v, %v), recomputed (%v, %v, %v)",
					seed, op, s.DCPower(), s.ACPower(), s.ThrottleLevel(), dc, ac, th)
			}
			for i, want := range supplyAC {
				if got, _ := s.SupplyACPower(ids[i]); got != want {
					t.Fatalf("seed %d after %s: supply %s draws %v, recomputed %v", seed, op, ids[i], got, want)
				}
				if got := s.SupplyACPowerAt(i); got != want {
					t.Fatalf("seed %d after %s: supply %d draws %v by index, recomputed %v", seed, op, i, got, want)
				}
			}
			s.ReadSensors(&r)
			if r.DCPower != dc || r.Throttle != th {
				t.Fatalf("seed %d after %s: sensors read dc %v throttle %v, recomputed %v %v",
					seed, op, r.DCPower, r.Throttle, dc, th)
			}
			if noisy {
				return
			}
			var total power.Watts
			for i, want := range supplyAC {
				if r.SupplyAC[i] != want {
					t.Fatalf("seed %d after %s: sensor %s reads %v, recomputed %v", seed, op, ids[i], r.SupplyAC[i], want)
				}
				total += r.SupplyAC[i]
			}
			if r.TotalAC != total {
				t.Fatalf("seed %d after %s: sensor total %v, want %v", seed, op, r.TotalAC, total)
			}
		}
		check("New")
		lo, hi := s.DCCapRange()
		if capMin, capMax := s.Envelope(); lo != s.Efficiency().ACToDC(capMin, s.RatedDC()) || hi != s.Efficiency().ACToDC(capMax, s.RatedDC()) {
			t.Fatalf("seed %d: DCCapRange (%v, %v) does not convert the envelope (%v, %v)", seed, lo, hi, capMin, capMax)
		}
		for i := 0; i < 200; i++ {
			switch rng.Intn(6) {
			case 0:
				s.SetUtilization(rng.Float64()*1.2 - 0.1)
				check("SetUtilization")
			case 1:
				s.SetDCCap(lo - 20 + power.Watts(rng.Float64())*(hi-lo+40))
				check("SetDCCap")
			case 2, 3:
				before := s.Supplies()
				s.Step(time.Duration(rng.Intn(3)) * time.Second)
				for j, sup := range s.Supplies() {
					if sup.State != before[j].State {
						stepToggles++
					}
				}
				check("Step")
			case 4:
				id := []string{"a", "b"}[rng.Intn(2)]
				if err := s.SetSupplyState(id, states[rng.Intn(len(states))]); err != nil {
					t.Fatal(err)
				}
				check("SetSupplyState")
			case 5:
				enter := 200 + power.Watts(rng.Intn(150))
				if err := s.ConfigureHotSpare("b", enter, enter+50); err != nil {
					t.Fatal(err)
				}
				check("ConfigureHotSpare")
			}
		}
	}
	if stepToggles == 0 {
		t.Fatal("no hot-spare toggle happened inside Step; the sequences do not cover applyHotSpares")
	}
}
