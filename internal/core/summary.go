package core

import (
	"fmt"
	"math"
	"sort"

	"capmaestro/internal/power"
)

// LevelMetrics holds one priority level's metrics within a Summary.
type LevelMetrics struct {
	Priority Priority
	CapMin   power.Watts
	Demand   power.Watts
	Request  power.Watts
}

// Summary is the priority-grouped metrics summary a node reports upstream
// in the metrics gathering phase (Section 4.3.1). Summaries are the only
// state exchanged between distributed workers: a sub-tree of thousands of
// servers compresses to a few numbers per priority level, which is what
// makes the root's global view scalable.
//
// Levels are stored as a compact slice sorted by descending priority (the
// order every phase of the algorithm consumes them in), so building and
// combining summaries in the Monte Carlo hot path allocates nothing once
// scratch capacity exists. The JSON wire shape exchanged by the control
// plane is unchanged: per-level maps keyed by the priority's decimal
// string, as the previous map-based representation marshaled.
type Summary struct {
	// levels holds one entry per priority present, descending by priority.
	levels []LevelMetrics
	// Constraint is the maximum budget the node can safely absorb.
	Constraint power.Watts
}

// NewSummary returns an empty summary. (The name survives from the
// map-based representation, which needed allocated maps; a zero Summary is
// now equally valid.)
func NewSummary() Summary { return Summary{} }

// reset empties the summary, retaining level capacity for reuse.
func (s *Summary) reset() {
	s.levels = s.levels[:0]
	s.Constraint = 0
}

// level returns the entry for priority p, inserting a zero entry at its
// sorted (descending) position if absent. The pointer is invalidated by
// the next insertion.
func (s *Summary) level(p Priority) *LevelMetrics {
	i := sort.Search(len(s.levels), func(i int) bool { return s.levels[i].Priority <= p })
	if i < len(s.levels) && s.levels[i].Priority == p {
		return &s.levels[i]
	}
	s.levels = append(s.levels, LevelMetrics{})
	copy(s.levels[i+1:], s.levels[i:])
	s.levels[i] = LevelMetrics{Priority: p}
	return &s.levels[i]
}

// at returns the entry for priority p, or a zero entry if absent.
func (s *Summary) at(p Priority) LevelMetrics {
	i := sort.Search(len(s.levels), func(i int) bool { return s.levels[i].Priority <= p })
	if i < len(s.levels) && s.levels[i].Priority == p {
		return s.levels[i]
	}
	return LevelMetrics{Priority: p}
}

// SetLevel sets all three metrics for one priority level.
func (s *Summary) SetLevel(p Priority, capMin, demand, request power.Watts) {
	l := s.level(p)
	l.CapMin, l.Demand, l.Request = capMin, demand, request
}

// SetCapMin sets the minimum budget owed to priority level p.
func (s *Summary) SetCapMin(p Priority, v power.Watts) { s.level(p).CapMin = v }

// SetDemand sets the power demand of priority level p.
func (s *Summary) SetDemand(p Priority, v power.Watts) { s.level(p).Demand = v }

// SetRequest sets the budget requested by priority level p.
func (s *Summary) SetRequest(p Priority, v power.Watts) { s.level(p).Request = v }

// CapMin returns the minimum total budget that must be allocated to
// servers at priority level p under the node (0 if the level is absent).
func (s Summary) CapMin(p Priority) power.Watts { return s.at(p).CapMin }

// Demand returns the total power demand at priority level p.
func (s Summary) Demand(p Priority) power.Watts { return s.at(p).Demand }

// Request returns the budget requested for priority level p, after
// accounting for limits and higher-priority requests.
func (s Summary) Request(p Priority) power.Watts { return s.at(p).Request }

// LevelMetrics returns the per-priority entries, descending by priority.
// The slice is the summary's backing storage; callers must not modify it.
func (s Summary) LevelMetrics() []LevelMetrics { return s.levels }

// TotalCapMin sums the minimum budgets across priority levels.
func (s Summary) TotalCapMin() power.Watts {
	var t power.Watts
	for i := range s.levels {
		t += s.levels[i].CapMin
	}
	return t
}

// TotalRequest sums requests across priority levels.
func (s Summary) TotalRequest() power.Watts {
	var t power.Watts
	for i := range s.levels {
		t += s.levels[i].Request
	}
	return t
}

// TotalDemand sums demands across priority levels.
func (s Summary) TotalDemand() power.Watts {
	var t power.Watts
	for i := range s.levels {
		t += s.levels[i].Demand
	}
	return t
}

// Levels returns the priorities present in the summary, descending.
func (s Summary) Levels() []Priority {
	out := make([]Priority, len(s.levels))
	for i := range s.levels {
		out[i] = s.levels[i].Priority
	}
	return out
}

// Collapse folds all priority levels into a single level 0, used when a
// policy hides priorities from (part of) the hierarchy. The collapsed
// request is re-limited by the constraint, since per-level requests were
// computed against priority-ordered headroom.
func (s Summary) Collapse() Summary {
	var c Summary
	c.collapseFrom(&s)
	return c
}

// collapseFrom fills dst with the single-level collapse of src, reusing
// dst's level storage. dst and src may alias.
func (dst *Summary) collapseFrom(src *Summary) {
	capMin := src.TotalCapMin()
	demand := src.TotalDemand()
	request := power.Min(src.TotalRequest(), src.Constraint)
	constraint := src.Constraint
	dst.reset()
	dst.Constraint = constraint
	l := dst.level(0)
	l.CapMin, l.Demand, l.Request = capMin, demand, request
}

// Clone deep-copies the summary.
func (s Summary) Clone() Summary {
	c := Summary{Constraint: s.Constraint}
	if len(s.levels) > 0 {
		c.levels = append([]LevelMetrics(nil), s.levels...)
	}
	return c
}

// copyFrom overwrites s with src's contents, reusing s's level storage.
func (s *Summary) copyFrom(src *Summary) {
	if s == src {
		return
	}
	s.levels = append(s.levels[:0], src.levels...)
	s.Constraint = src.Constraint
}

// Validate checks internal consistency of a summary received from a remote
// worker: finite, non-negative values and requests within the constraint
// envelope. A corrupt summary (NaN/Inf from an in-process proxy, or
// Request far beyond Constraint from a buggy remote) would otherwise
// poison the room-level allocation.
func (s Summary) Validate() error {
	if !isFiniteWatts(s.Constraint) {
		return fmt.Errorf("core: summary constraint %v not finite", s.Constraint)
	}
	if s.Constraint < 0 {
		return fmt.Errorf("core: summary constraint %v negative", s.Constraint)
	}
	for i := range s.levels {
		l := &s.levels[i]
		if !isFiniteWatts(l.CapMin) {
			return fmt.Errorf("core: summary capmin[%d] = %v not finite", l.Priority, l.CapMin)
		}
		if l.CapMin < 0 {
			return fmt.Errorf("core: summary capmin[%d] negative", l.Priority)
		}
		if !isFiniteWatts(l.Demand) {
			return fmt.Errorf("core: summary demand[%d] = %v not finite", l.Priority, l.Demand)
		}
		if l.Demand < 0 {
			return fmt.Errorf("core: summary demand[%d] negative", l.Priority)
		}
		if !isFiniteWatts(l.Request) {
			return fmt.Errorf("core: summary request[%d] = %v not finite", l.Priority, l.Request)
		}
		if l.Request < 0 {
			return fmt.Errorf("core: summary request[%d] negative", l.Priority)
		}
	}
	// Requests are floored at CapMin during aggregation, so when the
	// minimums alone exceed the constraint (an infeasible but representable
	// configuration) the envelope widens to the minimums.
	envelope := power.Max(s.Constraint, s.TotalCapMin())
	if total := s.TotalRequest(); total > envelope+epsilon {
		return fmt.Errorf("core: summary requests %v exceed constraint envelope %v", total, envelope)
	}
	return nil
}

// isFiniteWatts rejects NaN and ±Inf.
func isFiniteWatts(w power.Watts) bool {
	f := float64(w)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// CombineSummaries implements a shifting controller's aggregation
// (Section 4.3.1): child summaries are summed per priority, the node's
// constraint becomes min(limit, Σ child constraints), and requests are
// recomputed in descending priority order against the node's headroom:
//
//	Prequest(i,j) = min(Pconstraint − Σ_{h>j} Prequest(i,h)
//	                    − Σ_{l<j} Pcap_min(i,l),  Σ_k Prequest(i−1,j))
//
// with each level's request floored at its Pcap_min.
func CombineSummaries(children []Summary, limit power.Watts) Summary {
	var agg Summary
	combineInto(&agg, children, limit)
	return agg
}

// combineInto is CombineSummaries writing into a reusable destination.
// dst must not alias any element of children.
func combineInto(dst *Summary, children []Summary, limit power.Watts) {
	dst.reset()
	var childConstraints power.Watts
	for ci := range children {
		cm := &children[ci]
		for li := range cm.levels {
			cl := &cm.levels[li]
			l := dst.level(cl.Priority)
			l.CapMin += cl.CapMin
			l.Demand += cl.Demand
			l.Request += cl.Request
		}
		childConstraints += cm.Constraint
	}
	if limit <= 0 {
		dst.Constraint = childConstraints
	} else {
		dst.Constraint = power.Min(limit, childConstraints)
	}

	var capMinBelow power.Watts
	for i := range dst.levels {
		capMinBelow += dst.levels[i].CapMin
	}
	var requestAbove power.Watts
	for i := range dst.levels { // descending priority order
		l := &dst.levels[i]
		capMinBelow -= l.CapMin
		allowable := dst.Constraint - requestAbove - capMinBelow
		req := power.Min(allowable, l.Request)
		req = power.Max(req, l.CapMin)
		l.Request = req
		requestAbove += req
	}
}

// distScratch holds the reusable working storage of one budgeting pass:
// per-level priority union and per-child waterfill vectors.
type distScratch struct {
	levels    []Priority
	wants     []power.Watts
	weights   []float64
	shares    []power.Watts
	saturated []bool
}

// grow sizes the per-child vectors for n children.
func (sc *distScratch) grow(n int) {
	if cap(sc.wants) < n {
		sc.wants = make([]power.Watts, n)
		sc.weights = make([]float64, n)
		sc.shares = make([]power.Watts, n)
		sc.saturated = make([]bool, n)
	}
	sc.wants = sc.wants[:n]
	sc.weights = sc.weights[:n]
	sc.shares = sc.shares[:n]
	sc.saturated = sc.saturated[:n]
}

// levelUnion collects the distinct priorities across children, descending.
func (sc *distScratch) levelUnion(children []Summary) []Priority {
	sc.levels = sc.levels[:0]
	for ci := range children {
		for li := range children[ci].levels {
			p := children[ci].levels[li].Priority
			i := sort.Search(len(sc.levels), func(i int) bool { return sc.levels[i] <= p })
			if i < len(sc.levels) && sc.levels[i] == p {
				continue
			}
			sc.levels = append(sc.levels, 0)
			copy(sc.levels[i+1:], sc.levels[i:])
			sc.levels[i] = p
		}
	}
	return sc.levels
}

// DistributeBudget implements a shifting controller's budgeting phase
// (Section 4.3.2) among children described by their summaries:
//
//  1. allocate each child its Pcap_min;
//  2. fulfill requests level by level, highest priority first;
//  3. split the first level that cannot be fully met proportionally to
//     Pdemand − Pcap_min, capped at each child's allowable request;
//  4. assign any remaining power up to each child's Pconstraint.
//
// It returns the per-child allocations and whether the budget failed to
// cover the children's minimums (in which case minimums are scaled
// proportionally).
func DistributeBudget(b power.Watts, children []Summary) (allocs []power.Watts, infeasible bool) {
	alloc := make([]power.Watts, len(children))
	var sc distScratch
	infeasible = distributeInto(b, children, alloc, &sc)
	return alloc, infeasible
}

// distributeInto is DistributeBudget writing allocations into alloc
// (len(alloc) == len(children)) and reusing sc's scratch storage.
func distributeInto(b power.Watts, children []Summary, alloc []power.Watts, sc *distScratch) (infeasible bool) {
	var capMinTotal power.Watts
	for i := range children {
		alloc[i] = children[i].TotalCapMin()
		capMinTotal += alloc[i]
	}
	if b < 0 {
		b = 0
	}

	if b+epsilon < capMinTotal {
		scale := float64(0)
		if capMinTotal > 0 {
			scale = float64(b / capMinTotal)
		}
		for i := range alloc {
			alloc[i] *= power.Watts(scale)
		}
		return true
	}

	remaining := b - capMinTotal
	sc.grow(len(children))
	levels := sc.levelUnion(children)

	exhausted := false
	for _, j := range levels {
		wants := sc.wants
		var need power.Watts
		for i := range children {
			lj := children[i].at(j)
			w := lj.Request - lj.CapMin
			if w < 0 {
				w = 0
			}
			wants[i] = w
			need += w
		}
		if need <= remaining+epsilon {
			for i := range alloc {
				alloc[i] += wants[i]
			}
			remaining -= need
			if remaining < 0 {
				remaining = 0
			}
			continue
		}
		weights := sc.weights
		for i := range children {
			lj := children[i].at(j)
			w := float64(lj.Demand - lj.CapMin)
			if w < 0 {
				w = 0
			}
			weights[i] = w
		}
		shares := waterfillInto(remaining, weights, wants, sc.shares, sc.saturated)
		for i := range alloc {
			alloc[i] += shares[i]
		}
		remaining = 0
		exhausted = true
		break
	}

	if !exhausted && remaining > epsilon {
		headroom := sc.wants // reuse: wants are no longer needed
		weights := sc.weights
		for i := range children {
			h := children[i].Constraint - alloc[i]
			if h < 0 {
				h = 0
			}
			headroom[i] = h
			weights[i] = float64(h)
		}
		shares := waterfillInto(remaining, weights, headroom, sc.shares, sc.saturated)
		for i := range alloc {
			alloc[i] += shares[i]
		}
	}
	return false
}

// LeafSummary computes the level-1 (capping controller) summary of a
// supply leaf; exported for distributed workers that summarize their local
// servers before reporting upstream.
func LeafSummary(l *SupplyLeaf) Summary {
	var s Summary
	leafMetricsInto(&s, l)
	return s
}

// Summarize runs the metrics gathering phase over a subtree and returns
// the summary its root would report upstream under the given policy. It
// is one-shot: tests, examples and oracles — a per-period caller holds an
// Allocator and calls its Summarize.
func Summarize(root *Node, policy Policy) (Summary, error) {
	a, err := NewAllocator(root)
	if err != nil {
		return Summary{}, err
	}
	return a.Summarize(policy), nil
}
