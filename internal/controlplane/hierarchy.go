package controlplane

import (
	"errors"
	"fmt"
	"sort"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
)

// DefaultFanOut is the hierarchy fan-out used when HierarchyConfig leaves
// it zero: each aggregator serves at most this many children.
const DefaultFanOut = 32

// HierarchyConfig declares the shape of a sharded control-plane
// hierarchy built by BuildHierarchy.
type HierarchyConfig struct {
	// Levels counts every worker tier, racks and room included: 2 is the
	// flat room-over-racks layout, 3 inserts one aggregator tier, 4 two.
	Levels int
	// FanOut caps how many children each aggregator serves; the room
	// serves whatever the top aggregator tier leaves (at most FanOut^k
	// racks collapse into ceil(racks/FanOut^k) top-tier children). Zero
	// uses DefaultFanOut.
	FanOut int
	Policy core.Policy
	// Budget is the room's contractual budget; zero uses the (here
	// unconstrained) tree limit, i.e. no cap.
	Budget power.Watts
	// RoomID names the room's root node; empty uses "room".
	RoomID string
	// Opts apply to the room worker and to every aggregator; each
	// aggregator additionally gets WithHierarchyLevel for its tier.
	Opts []Option
}

// Hierarchy is a sharded control plane: a room worker at the top,
// aggregator tiers below it, rack clients at the bottom. The room drives
// the whole structure — one RunPeriod recursively gathers and budgets
// every tier.
type Hierarchy struct {
	Room *RoomWorker
	// Tiers holds the aggregator tiers bottom-up: Tiers[0] is level 1,
	// directly above the racks. Empty for Levels == 2.
	Tiers [][]*Aggregator
}

// BuildHierarchy shards a flat rack set into a Levels-deep hierarchy:
// racks are sorted by ID and chunked into groups of FanOut under level-1
// aggregators, those aggregators into level-2 groups, and so on, until
// the room worker sits on the top tier. Intermediate trees are
// unconstrained shifting nodes — the hierarchy changes who talks to whom,
// not the power topology — so the resulting budgets match a monolithic
// allocator over the same nested tree watt-for-watt.
//
// The aggregators are in-process RackClients wired directly into their
// parents. To distribute tiers across machines, serve any tier's
// aggregators with ServeRacks and dial them from a parent built
// separately.
func BuildHierarchy(racks map[string]RackClient, cfg HierarchyConfig) (*Hierarchy, error) {
	if len(racks) == 0 {
		return nil, errors.New("controlplane: hierarchy needs at least one rack")
	}
	if cfg.Levels < 2 {
		return nil, fmt.Errorf("controlplane: hierarchy needs >= 2 levels, got %d", cfg.Levels)
	}
	fanOut := cfg.FanOut
	if fanOut == 0 {
		fanOut = DefaultFanOut
	}
	if fanOut < 2 {
		return nil, fmt.Errorf("controlplane: hierarchy fan-out must be >= 2, got %d", cfg.FanOut)
	}
	roomID := cfg.RoomID
	if roomID == "" {
		roomID = "room"
	}

	ids := make([]string, 0, len(racks))
	for id := range racks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	clients := racks

	h := &Hierarchy{}
	for level := 1; level <= cfg.Levels-2; level++ {
		var tier []*Aggregator
		next := make(map[string]RackClient)
		var nextIDs []string
		for gi := 0; gi*fanOut < len(ids); gi++ {
			chunk := ids[gi*fanOut : min((gi+1)*fanOut, len(ids))]
			proxies := make([]*core.Node, len(chunk))
			childMap := make(map[string]RackClient, len(chunk))
			for i, id := range chunk {
				proxies[i] = core.NewProxy(id, core.NewSummary())
				childMap[id] = clients[id]
			}
			aggID := fmt.Sprintf("%s/l%d/agg%03d", roomID, level, gi)
			opts := make([]Option, 0, len(cfg.Opts)+1)
			opts = append(opts, cfg.Opts...)
			opts = append(opts, WithHierarchyLevel(level))
			agg, err := NewAggregator(core.NewShifting(aggID, 0, proxies...), cfg.Policy, childMap, opts...)
			if err != nil {
				return nil, fmt.Errorf("controlplane: hierarchy level %d: %w", level, err)
			}
			tier = append(tier, agg)
			next[aggID] = agg
			nextIDs = append(nextIDs, aggID)
		}
		h.Tiers = append(h.Tiers, tier)
		clients = next
		ids = nextIDs
	}

	proxies := make([]*core.Node, len(ids))
	for i, id := range ids {
		proxies[i] = core.NewProxy(id, core.NewSummary())
	}
	room, err := NewRoomWorker(core.NewShifting(roomID, 0, proxies...), cfg.Budget, cfg.Policy, clients, cfg.Opts...)
	if err != nil {
		return nil, fmt.Errorf("controlplane: hierarchy room: %w", err)
	}
	h.Room = room
	return h, nil
}
