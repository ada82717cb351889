package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"capmaestro/internal/core"
	"capmaestro/internal/dc"
	"capmaestro/internal/power"
	"capmaestro/internal/trace"
	"capmaestro/internal/workload"
)

func studyOptions(o Options) dc.StudyOptions {
	return dc.StudyOptions{
		TypicalRuns:   o.typicalRuns(),
		WorstCaseRuns: o.worstRuns(),
		Workers:       o.Workers,
		Seed:          o.Seed + 42,
	}
}

// Figure8 prints the synthetic stand-in for the paper's Figure 8 workload
// distribution.
func Figure8(Options) (*Result, error) {
	d := workload.Figure8Distribution()
	rec := trace.NewRecorder()
	var rows [][]string
	for _, b := range d.Buckets() {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", b[0]*100),
			fmt.Sprintf("%.1f%%", b[1]*100),
			strings.Repeat("█", int(b[1]*200+0.5)),
		})
	}
	var b strings.Builder
	b.WriteString(table([]string{"Avg CPU util", "Probability", ""}, rows))
	fmt.Fprintf(&b, "\nMean: %.1f%% (shared-cluster profile after Barroso et al.; tail calibrated\n", d.Mean()*100)
	b.WriteString("so the Table 4 data center supports 39 servers/rack in the typical case)\n")
	return &Result{ID: "fig8", Title: "Figure 8", Text: b.String(), Recorder: rec}, nil
}

var policies = []core.Policy{core.NoPriority, core.LocalPriority, core.GlobalPriority}

// Figure9 reproduces the deployable-server bars: typical-case and
// worst-case capacity per policy against the paper's 6318 / 3888 / 4860 /
// 5832.
func Figure9(o Options) (*Result, error) {
	opts := studyOptions(o)
	paperWorst := map[core.Policy]int{
		core.NoPriority: 3888, core.LocalPriority: 4860, core.GlobalPriority: 5832,
	}
	var rows [][]string
	for _, policy := range policies {
		typical, err := dc.FindCapacity(dc.DefaultConfig(), dc.Typical, policy, opts)
		if err != nil {
			return nil, err
		}
		worst, err := dc.FindCapacity(dc.DefaultConfig(), dc.WorstCase, policy, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			policy.String(),
			fmt.Sprintf("%d", typical.TotalServers),
			"6318",
			fmt.Sprintf("%d", worst.TotalServers),
			fmt.Sprintf("%d", paperWorst[policy]),
		})
	}
	var b strings.Builder
	b.WriteString(table([]string{"Policy", "Typical", "paper", "Worst case", "paper"}, rows))
	b.WriteString("\n(criterion: <1% average cap ratio — all servers in the typical case,\n")
	b.WriteString(" high-priority servers in the worst case; 30% of servers are high priority)\n")
	return &Result{ID: "fig9", Title: "Figure 9", Text: b.String()}, nil
}

// Figure10 reproduces the cap-ratio-vs-server-count curves during a
// worst-case emergency: Figure 10a (all servers) and 10b (high-priority
// servers) for the three policies.
func Figure10(o Options) (*Result, error) {
	opts := studyOptions(o)
	opts.MinPerRack = 12
	opts.MaxPerRack = 45
	opts.StepPerRack = 3

	curves := make(map[core.Policy][]dc.CurvePoint)
	for _, policy := range policies {
		c, err := dc.CapRatioCurve(dc.DefaultConfig(), dc.WorstCase, policy, opts)
		if err != nil {
			return nil, err
		}
		curves[policy] = c
	}
	var b strings.Builder
	header := []string{"Servers"}
	for _, p := range policies {
		header = append(header, p.String())
	}
	for _, fig := range []struct {
		name string
		pick func(dc.CurvePoint) float64
	}{
		{"Figure 10a: average cap ratio, all servers", func(p dc.CurvePoint) float64 { return p.CapRatioAll }},
		{"Figure 10b: average cap ratio, high-priority servers", func(p dc.CurvePoint) float64 { return p.CapRatioHigh }},
	} {
		b.WriteString(fig.name + "\n")
		var rows [][]string
		for i := range curves[core.NoPriority] {
			row := []string{fmt.Sprintf("%d", curves[core.NoPriority][i].TotalServers)}
			for _, p := range policies {
				row = append(row, fmt.Sprintf("%.3f", fig.pick(curves[p][i])))
			}
			rows = append(rows, row)
		}
		b.WriteString(table(header, rows))
		b.WriteByte('\n')
	}
	b.WriteString("(paper shape: ratios grow with server count; priority-aware policies hold\n")
	b.WriteString(" high-priority ratios near zero until much higher counts, global longest)\n")
	return &Result{ID: "fig10", Title: "Figure 10", Text: b.String()}, nil
}

// SensitivityHighPriorityFraction sweeps the fraction of high-priority
// servers (the paper's technical-report sensitivity study): more
// high-priority work shrinks Global Priority's worst-case advantage.
func SensitivityHighPriorityFraction(o Options) (*Result, error) {
	opts := studyOptions(o)
	var rows [][]string
	for _, frac := range []float64{0.10, 0.30, 0.50, 0.70} {
		cfg := dc.DefaultConfig()
		cfg.HighPriorityFraction = frac
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for _, policy := range []core.Policy{core.LocalPriority, core.GlobalPriority} {
			res, err := dc.FindCapacity(cfg, dc.WorstCase, policy, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", res.TotalServers))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(table([]string{"High-priority fraction", "Local Priority", "Global Priority"}, rows))
	b.WriteString("\n(worst-case capacity; Global ≥ Local everywhere, advantage shrinking as the\n")
	b.WriteString(" high-priority fraction grows — matching the technical report)\n")
	return &Result{ID: "sens-priority", Title: "Sensitivity: high-priority fraction", Text: b.String()}, nil
}

// SensitivityCapMin sweeps the server throttling floor Pcap_min: a deeper
// floor (lower Pcap_min) lets every policy pack more servers.
func SensitivityCapMin(o Options) (*Result, error) {
	opts := studyOptions(o)
	var rows [][]string
	for _, capMin := range []power.Watts{230, 270, 310, 350} {
		cfg := dc.DefaultConfig()
		cfg.Model.CapMin = capMin
		row := []string{fmt.Sprintf("%.0f W", float64(capMin))}
		for _, policy := range policies {
			res, err := dc.FindCapacity(cfg, dc.WorstCase, policy, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", res.TotalServers))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(table([]string{"Pcap_min", "No Priority", "Local Priority", "Global Priority"}, rows))
	b.WriteString("\n(worst-case capacity; a lower throttling floor frees more power for\n")
	b.WriteString(" high-priority servers, so priority-aware capacities rise)\n")
	return &Result{ID: "sens-capmin", Title: "Sensitivity: Pcap_min", Text: b.String()}, nil
}

// SensitivityContractualBudget sweeps the per-phase contractual budget.
func SensitivityContractualBudget(o Options) (*Result, error) {
	opts := studyOptions(o)
	var rows [][]string
	for _, kw := range []float64{560, 630, 700, 770} {
		cfg := dc.DefaultConfig()
		cfg.ContractualPerPhase = power.Kilowatts(kw)
		row := []string{fmt.Sprintf("%.0f kW", kw)}
		for _, policy := range policies {
			res, err := dc.FindCapacity(cfg, dc.WorstCase, policy, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", res.TotalServers))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(table([]string{"Contractual/phase", "No Priority", "Local Priority", "Global Priority"}, rows))
	b.WriteString("\n(worst-case capacity scales with the contractual budget for every policy;\n")
	b.WriteString(" the policy ordering is preserved at every budget)\n")
	return &Result{ID: "sens-budget", Title: "Sensitivity: contractual budget", Text: b.String()}, nil
}

// The binding diagnostic's configuration: the paper's Global Priority
// worst-case capacity, 36 servers per rack.
const (
	bindingPerRack = 36
	bindingPolicy  = core.GlobalPriority
	bindingCase    = dc.WorstCase
)

// Binding reports which hierarchy level saturates at the paper's Global
// Priority capacity (36/rack, worst case): how many nodes per level are
// allocated right up to their limit in one seeded run.
func Binding(o Options) (*Result, error) {
	cfg := dc.DefaultConfig()
	cfg.ServersPerRack = bindingPerRack
	built, err := dc.Build(cfg, bindingCase)
	if err != nil {
		return nil, err
	}
	r, err := built.AnalyzeBinding(rand.New(rand.NewSource(studyOptions(o).Seed)), bindingPolicy, 1.0)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — saturated nodes per level at %d/rack (%s):\n", bindingPolicy, bindingPerRack, bindingCase)
	for _, level := range r.Levels() {
		fmt.Fprintf(&b, "  %-12s %4d of %4d\n", level, r.Binding[level], r.Total[level])
	}
	return &Result{ID: "binding", Title: "Binding constraints", Text: b.String()}, nil
}
