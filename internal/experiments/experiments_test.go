package experiments

import (
	"strings"
	"testing"
)

var fast = Options{Fast: true, TypicalRuns: 30, WorstCaseRuns: 4}

func TestRegistryAndFind(t *testing.T) {
	reg := Registry()
	if len(reg) != 13 {
		t.Fatalf("registry size = %d, want 13", len(reg))
	}
	ids := IDs()
	if len(ids) != len(reg) {
		t.Fatal("IDs length mismatch")
	}
	if _, ok := Find("table1"); !ok {
		t.Error("table1 missing")
	}
	if _, ok := Find("nope"); ok {
		t.Error("unknown ID should not resolve")
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}

func TestTable1MatchesPaperExactly(t *testing.T) {
	r, err := Table1(fast)
	if err != nil {
		t.Fatal(err)
	}
	// Local priority column: 350/270/310/310; global: 430/270/270/270.
	for _, want := range []string{"350", "310", "430"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, r.Text)
		}
	}
}

func TestFigure5SettlesOnBudgets(t *testing.T) {
	r, err := Figure5(fast)
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Recorder
	// At t=50 (two+ control periods after the 200 W PS2 budget), PS2 power
	// is within 5% of 200; at t=130, PS1 is within 5% of 150.
	ps2 := rec.Series("PS2: Power").Points[50].V
	if ps2 > 210 || ps2 < 185 {
		t.Errorf("PS2 power at t=50 = %v, want ~200", ps2)
	}
	ps1 := rec.Series("PS1: Power").Points[130].V
	if ps1 > 157.5 || ps1 < 140 {
		t.Errorf("PS1 power at t=130 = %v, want ~150", ps1)
	}
	// Before any tightening, no throttling.
	if th := rec.Series("Throttling (%)").Points[25].V; th != 0 {
		t.Errorf("throttle at t=25 = %v, want 0", th)
	}
	// After both budget cuts, substantial throttling.
	if th := rec.Series("Throttling (%)").Points[200].V; th < 20 {
		t.Errorf("throttle at t=200 = %v, want substantial", th)
	}
}

func TestTable2PolicyShape(t *testing.T) {
	r, err := Table2(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "No Priority") ||
		!strings.Contains(r.Text, "Local Priority") ||
		!strings.Contains(r.Text, "Global Priority") {
		t.Fatalf("missing policy sections:\n%s", r.Text)
	}
	// Global priority section gives SA ~420 W (the row, not the header).
	global := r.Text[strings.Index(r.Text, "Global Priority ("):]
	saLine := global[strings.Index(global, "\nSA")+1:]
	saLine = saLine[:strings.Index(saLine, "\n")]
	if !strings.Contains(saLine, "42") && !strings.Contains(saLine, "41") {
		t.Errorf("global SA row suspicious: %q", saLine)
	}
}

func TestFigure6bNoViolations(t *testing.T) {
	r, err := Figure6b(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "top>1240W: 0 samples") ||
		!strings.Contains(r.Text, "left>750W: 0") ||
		!strings.Contains(r.Text, "right>750W: 0") {
		t.Errorf("expected zero top-CB violations:\n%s", r.Text)
	}
}

func TestTable3SPOBoostsSB(t *testing.T) {
	r, err := Table3(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "Stranded power reclaimed") {
		t.Errorf("missing stranded summary:\n%s", r.Text)
	}
	// Fig. 7b rows present.
	if !strings.Contains(r.Text, "w/o SPO") {
		t.Error("missing throughput table")
	}
}

func TestFigure7cFeedPowerRises(t *testing.T) {
	r, err := Figure7c(fast)
	if err != nil {
		t.Fatal(err)
	}
	without := r.Recorder.Series("without SPO").Last()
	with := r.Recorder.Series("with SPO").Last()
	if with < without+30 {
		t.Errorf("SPO should raise Y-feed power: %v -> %v", without, with)
	}
	if with > 702 {
		t.Errorf("Y-feed power %v exceeds its 700 W budget", with)
	}
}

func TestFigure8Output(t *testing.T) {
	r, err := Figure8(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "30%") || !strings.Contains(r.Text, "Mean") {
		t.Errorf("distribution output malformed:\n%s", r.Text)
	}
}

func TestFigure9HeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity sweep is expensive")
	}
	r, err := Figure9(fast)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3888", "4860", "5832", "6318"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("Figure 9 output missing %s:\n%s", want, r.Text)
		}
	}
}

func TestFigure10Curves(t *testing.T) {
	if testing.Short() {
		t.Skip("curve sweep is expensive")
	}
	o := fast
	r, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "Figure 10a") || !strings.Contains(r.Text, "Figure 10b") {
		t.Errorf("missing curve sections:\n%s", r.Text)
	}
}

func TestSensitivities(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweeps are expensive")
	}
	for _, fn := range []func(Options) (*Result, error){
		SensitivityHighPriorityFraction, SensitivityCapMin, SensitivityContractualBudget,
	} {
		r, err := fn(fast)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Text) < 100 {
			t.Errorf("sensitivity output too short:\n%s", r.Text)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.typicalRuns() != 400 || o.worstRuns() != 60 {
		t.Error("full-fidelity defaults wrong")
	}
	o.Fast = true
	if o.typicalRuns() != 60 || o.worstRuns() != 10 {
		t.Error("fast defaults wrong")
	}
	o.TypicalRuns, o.WorstCaseRuns = 5, 7
	if o.typicalRuns() != 5 || o.worstRuns() != 7 {
		t.Error("overrides ignored")
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"A", "LongHeader"}, [][]string{{"xxxxxx", "1"}, {"y", "2"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "------") {
		t.Errorf("missing separator: %q", lines[1])
	}
}

// TestBindingAtPaperCapacity pins the binding diagnostic at its default
// seed: at 36/rack under Global Priority every contractual budget binds
// while most transformers and every RPP and CDU keep headroom.
func TestBindingAtPaperCapacity(t *testing.T) {
	r, err := Binding(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"contractual     3 of    3",
		"transformer     1 of    6",
		"rpp             0 of   54",
		"cdu             0 of  486",
	} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("binding output missing %q:\n%s", want, r.Text)
		}
	}
}
