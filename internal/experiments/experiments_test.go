package experiments

import (
	"strings"
	"testing"
)

func assertReport(t *testing.T, r Report, wantID string) {
	t.Helper()
	if r.ID != wantID {
		t.Fatalf("report id %q, want %q", r.ID, wantID)
	}
	if strings.TrimSpace(r.Text) == "" {
		t.Errorf("%s: empty report text", r.ID)
	}
	for _, c := range r.Failed() {
		t.Errorf("%s: check %q failed: %s", r.ID, c.Name, c.Detail)
	}
	if !strings.Contains(r.String(), r.Title) {
		t.Errorf("%s: String() missing title", r.ID)
	}
}

func TestFig2(t *testing.T) { assertReport(t, Fig2(), "fig2") }
func TestFig3(t *testing.T) { assertReport(t, Fig3(), "fig3") }
func TestFig4(t *testing.T) { assertReport(t, Fig4(), "fig4") }
func TestFig5(t *testing.T) { assertReport(t, Fig5(), "fig5") }

func TestFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated FFT sweep")
	}
	t.Parallel()
	assertReport(t, Fig6(Options{Scale: 1}), "fig6")
}

func TestFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated FFT sweep")
	}
	t.Parallel()
	assertReport(t, Fig7(Options{Scale: 1}), "fig7")
}

func TestFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated FFT sweep")
	}
	t.Parallel()
	assertReport(t, Fig8(Options{Scale: 1}), "fig8")
}

func TestTableAvgDistance(t *testing.T) {
	t.Parallel()
	assertReport(t, TableAvgDistance(Options{}), "table-dist")
}

func TestTable1(t *testing.T) { assertReport(t, Table1(), "table1") }

func TestNetworkSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("packet sweep")
	}
	t.Parallel()
	assertReport(t, NetworkSaturation(Options{Scale: 1}), "netsat")
}

func TestCapacitySaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("16-seed load sweep")
	}
	t.Parallel()
	assertReport(t, CapacitySaturation(Options{Scale: 1}), "saturation")
}

func TestLULayouts(t *testing.T) {
	t.Parallel()
	assertReport(t, LULayouts(Options{Scale: 1}), "lu")
}

func TestSortComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sorts")
	}
	t.Parallel()
	assertReport(t, SortComparison(Options{Scale: 1}), "sort")
}

func TestCCStudy(t *testing.T) {
	t.Parallel()
	assertReport(t, CCStudy(Options{Scale: 1}), "cc")
}

func TestModelComparison(t *testing.T) { assertReport(t, ModelComparison(), "models") }
func TestCapacityAblation(t *testing.T) {
	t.Parallel()
	assertReport(t, CapacityAblation(), "capacity")
}
func TestBroadcastSweep(t *testing.T) { assertReport(t, BroadcastSweep(), "bcast-sweep") }

func TestMultithreading(t *testing.T) {
	t.Parallel()
	assertReport(t, Multithreading(Options{}), "multithreading")
}

func TestLongMessages(t *testing.T) { assertReport(t, LongMessages(Options{}), "longmsg") }

func TestScaleClamp(t *testing.T) {
	if Scale(0).clamp() != 1 || Scale(-3).clamp() != 1 || Scale(4).clamp() != 4 {
		t.Error("clamp wrong")
	}
}

func TestReportFailedFiltering(t *testing.T) {
	r := Report{ID: "x", Checks: []Check{
		{Name: "a", Pass: true},
		{Name: "b", Pass: false, Detail: "boom"},
	}}
	f := r.Failed()
	if len(f) != 1 || f[0].Name != "b" {
		t.Errorf("failed = %v", f)
	}
	if !strings.Contains(r.String(), "[FAIL] b") || !strings.Contains(r.String(), "[PASS] a") {
		t.Errorf("render:\n%s", r.String())
	}
}

func TestSurfaceToVolume(t *testing.T) {
	t.Parallel()
	assertReport(t, SurfaceToVolume(Options{Scale: 1}), "surface")
}

func TestOverlapFFT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated FFT runs")
	}
	t.Parallel()
	assertReport(t, OverlapFFT(Options{}), "overlap")
}

func TestPatternGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("packet sweeps")
	}
	t.Parallel()
	assertReport(t, PatternGaps(Options{Scale: 1}), "patterns")
}

func TestParameterSpace(t *testing.T) { assertReport(t, ParameterSpace(), "paramspace") }

func TestPRAMEmulation(t *testing.T) {
	t.Parallel()
	assertReport(t, PRAMEmulation(), "pram")
}

func TestRobustness(t *testing.T) {
	t.Parallel()
	assertReport(t, Robustness(), "robustness")
}

func TestBSPComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated FFT runs")
	}
	t.Parallel()
	assertReport(t, BSPComparison(Options{Scale: 1}), "bsp")
}

func TestActiveMessages(t *testing.T) { assertReport(t, ActiveMessages(), "am") }

func TestChaos(t *testing.T) {
	t.Parallel()
	assertReport(t, Chaos(Options{}), "chaos")
}
