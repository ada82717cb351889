package flightrec

import (
	"slices"
	"sync"
	"time"

	"capmaestro/internal/core"
)

// DefaultBufferSize is the ring capacity used when a non-positive size is
// requested.
const DefaultBufferSize = 64

// PeriodRecord is one control period's complete flight-recorder entry:
// the span tree plus the allocator's per-node explain records.
type PeriodRecord struct {
	// ID is the recorder-assigned sequence number (monotonic; gaps never
	// occur, but old IDs fall out of the ring).
	ID       uint64        `json:"id"`
	TraceID  string        `json:"trace_id"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Label distinguishes record sources when several components share a
	// recorder (e.g. "room", a simulator phase).
	Label string `json:"label,omitempty"`
	// Err is the period-level failure, if the period did not complete.
	Err string `json:"error,omitempty"`
	// GatherErrors / ApplyErrors count racks that failed each phase.
	GatherErrors int `json:"gather_errors,omitempty"`
	ApplyErrors  int `json:"apply_errors,omitempty"`
	// BudgetsHeld counts racks whose pushes were held (stale or never
	// gathered).
	BudgetsHeld int  `json:"budgets_held,omitempty"`
	Infeasible  bool `json:"infeasible,omitempty"`

	// Fleet is the period's fleet observability digest, reduced to its
	// headline numbers (see internal/fleetobs). Present when the recording
	// worker rolls up digests.
	Fleet *FleetNote `json:"fleet,omitempty"`

	Spans    []Span             `json:"spans"`
	Explains []core.NodeExplain `json:"explains,omitempty"`
	// Annotations are events attached to the period after it was
	// recorded — e.g. SLO alert transitions evaluated from its data.
	Annotations []Annotation `json:"annotations,omitempty"`
}

// FleetNote annotates a period with the fleet digest's headline numbers.
// It mirrors fleetobs.DigestSummary field-for-field without importing it,
// keeping flightrec dependency-light.
type FleetNote struct {
	Racks              int     `json:"racks"`
	PowerWatts         float64 `json:"power_watts"`
	BudgetWatts        float64 `json:"budget_watts"`
	HeadroomWatts      float64 `json:"headroom_watts"`
	WorstHeadroomWatts float64 `json:"worst_headroom_watts"`
	WorstHeadroomRack  string  `json:"worst_headroom_rack,omitempty"`
	ViolatingRacks     int     `json:"violating_racks,omitempty"`
	OutlierRacks       int     `json:"outlier_racks,omitempty"`
}

// Annotation is a timestamped note attached to a period record, such as
// an alert firing or resolving.
type Annotation struct {
	Time time.Time `json:"time"`
	// Kind groups annotations ("alert-firing", "alert-resolved", ...).
	Kind string `json:"kind"`
	Text string `json:"text"`
}

// PeriodSummary is the list-view projection of a PeriodRecord, served by
// /debug/periods.
type PeriodSummary struct {
	ID           uint64        `json:"id"`
	TraceID      string        `json:"trace_id"`
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration_ns"`
	Label        string        `json:"label,omitempty"`
	Err          string        `json:"error,omitempty"`
	GatherErrors int           `json:"gather_errors,omitempty"`
	ApplyErrors  int           `json:"apply_errors,omitempty"`
	BudgetsHeld  int           `json:"budgets_held,omitempty"`
	Infeasible   bool          `json:"infeasible,omitempty"`
	Spans        int           `json:"spans"`
	Explains     int           `json:"explains"`
	Annotations  int           `json:"annotations,omitempty"`
}

// Recorder retains the last N PeriodRecords in a fixed-size ring buffer.
// It is safe for concurrent use, and a nil Recorder no-ops (Enabled
// reports false), so components take a *Recorder unconditionally.
type Recorder struct {
	mu   sync.Mutex
	ring []PeriodRecord
	next uint64 // sequence number of the next record
	n    int    // records currently held (≤ len(ring))
	head int    // ring index the next record lands in
}

// NewRecorder builds a recorder holding the last size periods
// (DefaultBufferSize when size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultBufferSize
	}
	return &Recorder{ring: make([]PeriodRecord, size)}
}

// Enabled reports whether records are being retained.
func (r *Recorder) Enabled() bool { return r != nil }

// Add assigns the record its sequence ID and stores it, evicting the
// oldest record when the ring is full. The assigned ID is returned. The
// record's Explains belong to the recorder from then on: readers get
// copies, and SpareExplains hands the list back once the record leaves.
func (r *Recorder) Add(rec PeriodRecord) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.ID = r.next
	r.next++
	r.ring[r.head] = rec
	r.head = (r.head + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	return rec.ID
}

// SpareExplains lets a producer that records explains every period fill
// one list over and over instead of allocating one per period. When the
// ring is full it evicts the oldest record now, as the next Add would,
// and returns that record's explain list emptied, for the caller to fill
// and pass to Add; otherwise it returns nil.
func (r *Recorder) SpareExplains() []core.NodeExplain {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < len(r.ring) {
		return nil
	}
	spare := r.ring[r.head].Explains[:0]
	r.ring[r.head] = PeriodRecord{}
	r.n--
	return spare
}

// Annotate attaches an annotation to the most recently added record —
// the period whose data produced the event — and reports whether a
// record was there to receive it. SLO alert transitions land here
// because they are evaluated right after the period is recorded.
func (r *Recorder) Annotate(a Annotation) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return false
	}
	idx := (r.head - 1 + len(r.ring)) % len(r.ring)
	r.ring[idx].Annotations = append(r.ring[idx].Annotations, a)
	return true
}

// Get returns the record with the given sequence ID, if it is still in
// the ring.
func (r *Recorder) Get(id uint64) (PeriodRecord, bool) {
	if r == nil {
		return PeriodRecord{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := r.next - uint64(r.n)
	if id < oldest || id >= r.next {
		return PeriodRecord{}, false
	}
	idx := (r.head - int(r.next-id) + 2*len(r.ring)) % len(r.ring)
	return detached(r.ring[idx]), true
}

// detached returns rec with its own copy of the explain list, which the
// ring may hand to a producer for reuse once the record is evicted.
func detached(rec PeriodRecord) PeriodRecord {
	rec.Explains = slices.Clone(rec.Explains)
	return rec
}

// Records returns the retained records, oldest first.
func (r *Recorder) Records() []PeriodRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PeriodRecord, 0, r.n)
	r.each(func(rec *PeriodRecord) { out = append(out, detached(*rec)) })
	return out
}

// each calls f on every retained record, oldest first. The caller holds
// r.mu.
func (r *Recorder) each(f func(rec *PeriodRecord)) {
	start := (r.head - r.n + len(r.ring)) % len(r.ring)
	for i := 0; i < r.n; i++ {
		f(&r.ring[(start+i)%len(r.ring)])
	}
}

// Summaries returns list-view projections of the retained records, newest
// first (the order /debug/periods serves them in).
func (r *Recorder) Summaries() []PeriodSummary {
	if r == nil {
		return []PeriodSummary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PeriodSummary, 0, r.n)
	r.each(func(rec *PeriodRecord) {
		out = append(out, PeriodSummary{
			ID:           rec.ID,
			TraceID:      rec.TraceID,
			Start:        rec.Start,
			Duration:     rec.Duration,
			Label:        rec.Label,
			Err:          rec.Err,
			GatherErrors: rec.GatherErrors,
			ApplyErrors:  rec.ApplyErrors,
			BudgetsHeld:  rec.BudgetsHeld,
			Infeasible:   rec.Infeasible,
			Spans:        len(rec.Spans),
			Explains:     len(rec.Explains),
			Annotations:  len(rec.Annotations),
		})
	})
	slices.Reverse(out)
	return out
}
