// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment returns a Result holding the
// measured rows/series formatted like the paper reports them, alongside
// the paper's published values for comparison, and (for figures) the raw
// time series for CSV export. The cmd/experiments binary and the
// repository's benchmark suite both drive this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"capmaestro/internal/trace"
)

// Result is the output of one experiment.
type Result struct {
	// ID is the experiment's registry key ("table1", "fig5", ...).
	ID string
	// Title describes the experiment as in the paper.
	Title string
	// Text is the formatted paper-style output.
	Text string
	// Recorder carries time series for figure experiments (nil for
	// tables).
	Recorder *trace.Recorder
}

// Options tunes experiment fidelity.
type Options struct {
	// Fast reduces Monte Carlo run counts for quick regeneration; the
	// defaults match the fidelity used to validate against the paper.
	Fast bool
	// TypicalRuns and WorstCaseRuns override the capacity-study run
	// counts; zero selects per-mode defaults.
	TypicalRuns   int
	WorstCaseRuns int
	// Workers bounds the concurrency of the Monte Carlo capacity studies;
	// zero uses one worker per CPU. Results are identical for any value.
	Workers int
	// Seed makes every experiment reproducible.
	Seed int64
}

func (o Options) typicalRuns() int {
	if o.TypicalRuns > 0 {
		return o.TypicalRuns
	}
	if o.Fast {
		return 60
	}
	return 400
}

func (o Options) worstRuns() int {
	if o.WorstCaseRuns > 0 {
		return o.WorstCaseRuns
	}
	if o.Fast {
		return 10
	}
	return 60
}

// Experiment is a registered regenerator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table 1: local vs. global priority budgets (conceptual)", func(o Options) (*Result, error) { return Table1(o) }},
		{"fig5", "Figure 5: power capping for redundant power supplies", func(o Options) (*Result, error) { return Figure5(o) }},
		{"table2", "Table 2 + Figure 6a: power capping policies on the test bed", func(o Options) (*Result, error) { return Table2(o) }},
		{"fig6b", "Figure 6b: circuit-breaker power under Global Priority", func(o Options) (*Result, error) { return Figure6b(o) }},
		{"table3", "Table 3 + Figure 7b: stranded power optimization", func(o Options) (*Result, error) { return Table3(o) }},
		{"fig7c", "Figure 7c: Y-side feed power with and without SPO", func(o Options) (*Result, error) { return Figure7c(o) }},
		{"fig8", "Figure 8: distribution of average CPU utilization", func(o Options) (*Result, error) { return Figure8(o) }},
		{"fig9", "Figure 9: total servers deployable", func(o Options) (*Result, error) { return Figure9(o) }},
		{"fig10", "Figure 10: average cap ratios during a worst-case emergency", func(o Options) (*Result, error) { return Figure10(o) }},
		{"sens-priority", "Sensitivity: fraction of high-priority servers", func(o Options) (*Result, error) { return SensitivityHighPriorityFraction(o) }},
		{"sens-capmin", "Sensitivity: server Pcap_min", func(o Options) (*Result, error) { return SensitivityCapMin(o) }},
		{"sens-budget", "Sensitivity: contractual budget", func(o Options) (*Result, error) { return SensitivityContractualBudget(o) }},
		{"binding", "Binding constraints: which level saturates at Global Priority's capacity", func(o Options) (*Result, error) { return Binding(o) }},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists registered experiment IDs in paper order.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// table renders rows as a fixed-width text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
