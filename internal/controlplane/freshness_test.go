package controlplane

import (
	"context"
	"math"
	"sync"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
)

// freshnessClient returns a distinct demand on every Gather
// (300 + 10·count) and records every pushed budget, so the budget value
// itself reveals which gather it was derived from.
type freshnessClient struct {
	mu      sync.Mutex
	gathers int
	pushes  []power.Watts
}

func (c *freshnessClient) Gather(ctx context.Context) (core.Summary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gathers++
	d := power.Watts(300 + 10*c.gathers)
	s := core.NewSummary()
	s.SetLevel(0, 270, d, d)
	s.Constraint = d
	return s, nil
}

func (c *freshnessClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushes = append(c.pushes, b)
	return nil
}

// TestPeriodFreshness: the budget pushed in period k must be derived from
// period k's own gather — never a stale or not-yet-committed one. The
// rack's demand encodes the gather ordinal and flows through allocation
// unchanged (unconstrained tree, zero room budget → demand-following), so
// pushes[k] must equal 300 + 10·(k+1) exactly.
func TestPeriodFreshness(t *testing.T) {
	fc := &freshnessClient{}
	tree := core.NewShifting("room", 0, core.NewProxy("r1", core.NewSummary()))
	room, err := NewRoomWorker(tree, 0, core.GlobalPriority, map[string]RackClient{"r1": fc})
	if err != nil {
		t.Fatal(err)
	}
	const periods = 6
	for k := 0; k < periods; k++ {
		if _, _, err := room.RunPeriod(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.gathers != periods {
		t.Fatalf("gathers = %d, want %d", fc.gathers, periods)
	}
	if len(fc.pushes) != periods {
		t.Fatalf("pushes = %d, want %d", len(fc.pushes), periods)
	}
	for k, got := range fc.pushes {
		want := power.Watts(300 + 10*(k+1))
		if math.Abs(float64(got-want)) > 0.001 {
			t.Errorf("push %d = %v W, want %v W (a stale gather leaked into the push)", k, got, want)
		}
	}
}
