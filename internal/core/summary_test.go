package core

import (
	"math"
	"strings"
	"testing"

	"capmaestro/internal/power"
)

func validSummary() Summary {
	s := NewSummary()
	s.SetLevel(0, 270, 450, 450)
	s.Constraint = 490
	return s
}

func TestSummaryValidate(t *testing.T) {
	nan := power.Watts(math.NaN())
	inf := power.Watts(math.Inf(1))

	cases := []struct {
		name    string
		mutate  func(*Summary)
		wantErr string // empty = valid
	}{
		{"valid", func(s *Summary) {}, ""},
		{"empty", func(s *Summary) { *s = NewSummary() }, ""},
		{"nan constraint", func(s *Summary) { s.Constraint = nan }, "not finite"},
		{"inf constraint", func(s *Summary) { s.Constraint = inf }, "not finite"},
		{"negative constraint", func(s *Summary) { s.Constraint = -1 }, "negative"},
		{"nan capmin", func(s *Summary) { s.SetCapMin(0, nan) }, "not finite"},
		{"negative capmin", func(s *Summary) { s.SetCapMin(0, -270) }, "negative"},
		{"inf demand", func(s *Summary) { s.SetDemand(0, inf) }, "not finite"},
		{"negative demand", func(s *Summary) { s.SetDemand(0, -1) }, "negative"},
		{"nan request", func(s *Summary) { s.SetRequest(3, nan) }, "not finite"},
		{"negative request", func(s *Summary) { s.SetRequest(0, -450) }, "negative"},
		// A zero-value summary (as from a never-gathered proxy) is valid:
		// the control plane must handle "no data" by policy, not rejection.
		{"zero", func(s *Summary) { *s = Summary{} }, ""},
		// Requests beyond the constraint envelope indicate a corrupt or
		// buggy reporter and would poison the upper-level allocation.
		{"request exceeds constraint", func(s *Summary) { s.SetRequest(0, 600) }, "exceed constraint envelope"},
		{"request across levels exceeds constraint", func(s *Summary) {
			s.SetRequest(3, 300)
			s.SetRequest(0, 300)
		}, "exceed constraint envelope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSummary()
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSummaryValidateInfeasibleMinimums: when the minimums alone exceed the
// constraint (e.g. a CDU limit below the servers' Pcap_min sum) the
// aggregation rules floor requests at CapMin, so such summaries — produced
// by correct reporters — must validate.
func TestSummaryValidateInfeasibleMinimums(t *testing.T) {
	s := NewSummary()
	// Two servers at 270 W minimum; request floored at CapMin by
	// CombineSummaries; constraint is an infeasible branch-circuit limit.
	s.SetLevel(0, 540, 900, 540)
	s.Constraint = 500
	if err := s.Validate(); err != nil {
		t.Fatalf("infeasible-but-representable summary rejected: %v", err)
	}
	// The envelope is max(Constraint, ΣCapMin), not their sum.
	s.SetRequest(0, 560)
	if err := s.Validate(); err == nil {
		t.Fatal("request above both constraint and minimums should be rejected")
	}
}

// TestCombinedSummariesValidate: everything CombineSummaries produces from
// valid inputs passes Validate — the gather path validates remote summaries
// with it, so the aggregation rules and the validator must agree.
func TestCombinedSummariesValidate(t *testing.T) {
	a := NewSummary()
	a.SetLevel(0, 270, 450, 450)
	a.Constraint = 490
	b := NewSummary()
	b.SetLevel(3, 270, 430, 430)
	b.Constraint = 490
	for _, limit := range []power.Watts{0, 400, 700, 2000} {
		comb := CombineSummaries([]Summary{a, b}, limit)
		if err := comb.Validate(); err != nil {
			t.Errorf("limit %v: combined summary invalid: %v\n%+v", limit, err, comb)
		}
	}
}
