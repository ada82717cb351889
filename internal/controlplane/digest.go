package controlplane

import (
	"context"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/power"
)

// DigestGatherer is the optional interface a RackClient implements to
// piggyback a fleet observability digest on gathers. RackWorker,
// Aggregator, LocalClient, TCPClient, and RackHandle all implement it;
// plain RackClients still work — the caller synthesizes a single-rack
// digest from the summary instead (see rackSelfDigest).
type DigestGatherer interface {
	GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error)
}

// gatherMaybeDigest gathers from w, asking for a digest when the request
// wants one and the worker can produce it.
func gatherMaybeDigest(ctx context.Context, w RackClient, want bool) (core.Summary, *fleetobs.StatDigest, error) {
	if want {
		if dg, ok := w.(DigestGatherer); ok {
			return dg.GatherDigest(ctx)
		}
	}
	s, err := w.Gather(ctx)
	return s, nil, err
}

// rackSelfDigest fills d with a single rack's contribution to the fleet
// rollup, derived from its freshly gathered summary and the last budget
// pushed to it. haveBudget is false before the first push; headroom then
// measures against the rack's own constraint, which is what the budget
// would converge to absent contention.
func rackSelfDigest(d *fleetobs.StatDigest, id string, s *core.Summary, budget power.Watts, haveBudget bool) {
	d.Reset()
	demand := float64(s.TotalDemand())
	d.Racks = 1
	d.PowerW = demand
	d.RequestW = float64(s.TotalRequest())
	d.CapMinW = float64(s.TotalCapMin())
	limit := float64(s.Constraint)
	if haveBudget {
		limit = float64(budget)
		d.BudgetW = limit
	}
	headroom := limit - demand
	d.HeadroomW = headroom
	d.WorstHeadroomW = headroom
	d.WorstHeadroomRack = id
	// Headroom is observed as a fraction of demand so racks of very
	// different sizes land in comparable buckets.
	scale := demand
	if scale < 1 {
		scale = 1
	}
	frac := headroom / scale
	d.Headroom.Observe(fleetobs.HeadroomBounds, frac)
	switch {
	case headroom < 0:
		d.ViolatingRacks = 1
		d.ViolationW = -headroom
		d.AddOutlier(fleetobs.Outlier{
			Rack:      id,
			Reason:    fleetobs.ReasonCapExceeded,
			Score:     1 - frac,
			PowerW:    demand,
			HeadroomW: headroom,
		})
	case frac < fleetobs.LowHeadroomFrac:
		d.AddOutlier(fleetobs.Outlier{
			Rack:      id,
			Reason:    fleetobs.ReasonLowHeadroom,
			Score:     fleetobs.LowHeadroomFrac - frac,
			PowerW:    demand,
			HeadroomW: headroom,
		})
	}
}
