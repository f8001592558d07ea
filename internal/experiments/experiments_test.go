package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var shared *Setup

func setup(t *testing.T) *Setup {
	t.Helper()
	if shared == nil {
		s, err := NewSetup(synth.SmallConfig())
		if err != nil {
			t.Fatalf("NewSetup: %v", err)
		}
		shared = s
	}
	return shared
}

func TestSetupCases(t *testing.T) {
	s := setup(t)
	if got := len(s.Cases(wiki.PtEn)); got != 14 {
		t.Errorf("pt-en cases = %d, want 14", got)
	}
	if got := len(s.Cases(wiki.VnEn)); got != 4 {
		t.Errorf("vn-en cases = %d, want 4", got)
	}
	for _, tc := range s.Cases(wiki.PtEn) {
		if tc.Truth.Pairs() == 0 {
			t.Errorf("type %s has empty ground truth", tc.Canon)
		}
	}
}

// TestTable2Shape checks the paper's headline claims: WikiMatch has the
// best average F-measure for both pairs, with a clear recall advantage;
// LSI is the weakest overall.
func TestTable2Shape(t *testing.T) {
	s := setup(t)
	rows := s.Table2(core.DefaultConfig())
	for _, pair := range s.Pairs() {
		var avg *Table2Row
		for i := range rows {
			if rows[i].Pair == pair && rows[i].Canon == "Avg" {
				avg = &rows[i]
			}
		}
		if avg == nil {
			t.Fatalf("no Avg row for %s", pair)
		}
		t.Logf("%s Avg: WM=%.2f/%.2f/%.2f Bouma=%.2f/%.2f/%.2f COMA=%.2f/%.2f/%.2f LSI=%.2f/%.2f/%.2f",
			pair,
			avg.WikiMatch.Precision, avg.WikiMatch.Recall, avg.WikiMatch.F,
			avg.Bouma.Precision, avg.Bouma.Recall, avg.Bouma.F,
			avg.COMA.Precision, avg.COMA.Recall, avg.COMA.F,
			avg.LSI.Precision, avg.LSI.Recall, avg.LSI.F)
		for name, other := range map[string]float64{
			"Bouma": avg.Bouma.F, "COMA": avg.COMA.F, "LSI": avg.LSI.F,
		} {
			if avg.WikiMatch.F <= other {
				t.Errorf("%s: WikiMatch F (%.3f) should beat %s (%.3f)", pair, avg.WikiMatch.F, name, other)
			}
		}
		if avg.WikiMatch.Recall <= avg.Bouma.Recall {
			t.Errorf("%s: WikiMatch recall (%.3f) should beat Bouma (%.3f)",
				pair, avg.WikiMatch.Recall, avg.Bouma.Recall)
		}
		if avg.LSI.F >= avg.WikiMatch.F || avg.LSI.F >= avg.COMA.F {
			t.Errorf("%s: LSI should be weakest (LSI=%.3f COMA=%.3f WM=%.3f)",
				pair, avg.LSI.F, avg.COMA.F, avg.WikiMatch.F)
		}
	}
}

// TestTable3Shape checks the ablation claims of Section 4.2.
func TestTable3Shape(t *testing.T) {
	s := setup(t)
	rows := s.Table3(core.DefaultConfig())
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
		t.Logf("%-32s pt-en %.2f/%.2f/%.2f  vn-en %.2f/%.2f/%.2f", r.Name,
			r.PtEn.Precision, r.PtEn.Recall, r.PtEn.F,
			r.VnEn.Precision, r.VnEn.Recall, r.VnEn.F)
	}
	full := byName["WikiMatch"]
	// Removing ReviseUncertain costs recall with little precision change.
	noRev := byName["WikiMatch-ReviseUncertain"]
	if noRev.PtEn.Recall >= full.PtEn.Recall {
		t.Errorf("removing ReviseUncertain should cost pt-en recall: %.3f vs %.3f",
			noRev.PtEn.Recall, full.PtEn.Recall)
	}
	// Removing IntegrateMatches costs precision.
	noInt := byName["WikiMatch-IntegrateMatches"]
	if noInt.PtEn.Precision >= full.PtEn.Precision {
		t.Errorf("removing IntegrateMatches should cost pt-en precision: %.3f vs %.3f",
			noInt.PtEn.Precision, full.PtEn.Precision)
	}
	// Random ordering collapses F.
	if byName["WikiMatch random"].PtEn.F >= full.PtEn.F {
		t.Errorf("random ordering should hurt F: %.3f vs %.3f",
			byName["WikiMatch random"].PtEn.F, full.PtEn.F)
	}
	// Single step trades precision for recall.
	ss := byName["WikiMatch single step"]
	if ss.PtEn.Precision >= full.PtEn.Precision {
		t.Errorf("single step should collapse precision: %.3f vs %.3f",
			ss.PtEn.Precision, full.PtEn.Precision)
	}
	if ss.PtEn.Recall <= full.PtEn.Recall {
		t.Errorf("single step should raise recall: %.3f vs %.3f", ss.PtEn.Recall, full.PtEn.Recall)
	}
	// vsim is the most important similarity feature.
	dropV := full.PtEn.F - byName["WikiMatch-vsim"].PtEn.F
	dropL := full.PtEn.F - byName["WikiMatch-lsim"].PtEn.F
	if dropV <= dropL {
		t.Errorf("vsim removal (ΔF=%.3f) should hurt more than lsim removal (ΔF=%.3f)", dropV, dropL)
	}
}

// TestTable5Shape verifies the heterogeneity contrast.
func TestTable5Shape(t *testing.T) {
	s := setup(t)
	rows := s.Table5()
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	var film *Table5Row
	for i := range rows {
		if rows[i].Canon == "film" {
			film = &rows[i]
		}
	}
	if film == nil || !film.HasVn {
		t.Fatal("film row missing vn data")
	}
	if film.VnEn <= film.PtEn {
		t.Errorf("vn-en film overlap (%.2f) should exceed pt-en (%.2f)", film.VnEn, film.PtEn)
	}
}

// TestTable6Shape: WikiMatch wins the macro comparison too.
func TestTable6Shape(t *testing.T) {
	s := setup(t)
	for _, r := range s.Table6(core.DefaultConfig()) {
		t.Logf("%s macro: WM=%.2f Bouma=%.2f COMA=%.2f LSI=%.2f",
			r.Pair, r.WikiMatch.F, r.Bouma.F, r.COMA.F, r.LSI.F)
		if r.WikiMatch.F <= r.Bouma.F || r.WikiMatch.F <= r.COMA.F || r.WikiMatch.F <= r.LSI.F {
			t.Errorf("%s: WikiMatch macro F (%.3f) should lead (Bouma %.3f, COMA %.3f, LSI %.3f)",
				r.Pair, r.WikiMatch.F, r.Bouma.F, r.COMA.F, r.LSI.F)
		}
	}
}

// TestTable7Shape: LSI gives the best ordering; everything beats random.
func TestTable7Shape(t *testing.T) {
	s := setup(t)
	rows := s.Table7(core.DefaultConfig(), 99)
	byName := map[string]Table7Row{}
	for _, r := range rows {
		byName[r.Measure] = r
		t.Logf("%-8s pt-en %.2f vn-en %.2f", r.Measure, r.PtEn, r.VnEn)
	}
	for _, m := range []string{"X1", "X2", "X3"} {
		if byName[m].PtEn <= byName["Random"].PtEn {
			t.Errorf("%s MAP (%.3f) should beat random (%.3f)", m, byName[m].PtEn, byName["Random"].PtEn)
		}
	}
	if byName["LSI"].PtEn <= byName["Random"].PtEn || byName["LSI"].VnEn <= byName["Random"].VnEn {
		t.Errorf("LSI should beat random ordering")
	}
	if byName["LSI"].PtEn < byName["X1"].PtEn {
		t.Errorf("LSI MAP (%.3f) should beat X1 (%.3f) on pt-en", byName["LSI"].PtEn, byName["X1"].PtEn)
	}
}

// TestFigure3Shape: recall of WM exceeds WM* in every configuration.
func TestFigure3Shape(t *testing.T) {
	s := setup(t)
	for _, b := range s.Figure3(core.DefaultConfig()) {
		t.Logf("%s no-%s: WM*=%.2f/%.2f WM=%.2f/%.2f", b.Pair, b.Removed,
			b.WMx.Precision, b.WMx.Recall, b.WM.Precision, b.WM.Recall)
		if b.WM.Recall < b.WMx.Recall {
			t.Errorf("%s no-%s: WM recall (%.3f) below WM* (%.3f)",
				b.Pair, b.Removed, b.WM.Recall, b.WMx.Recall)
		}
	}
}

// TestFigure6Shape: recall grows and precision falls with k.
func TestFigure6Shape(t *testing.T) {
	s := setup(t)
	rows := s.Figure6(core.DefaultConfig())
	byPair := map[wiki.LanguagePair][]Figure6Row{}
	for _, r := range rows {
		byPair[r.Pair] = append(byPair[r.Pair], r)
	}
	for pair, rs := range byPair {
		if rs[0].K != 1 || rs[len(rs)-1].K != 10 {
			t.Fatalf("%s: unexpected k order %v", pair, rs)
		}
		if rs[len(rs)-1].PRF.Recall < rs[0].PRF.Recall {
			t.Errorf("%s: recall should grow with k", pair)
		}
		if rs[len(rs)-1].PRF.Precision > rs[0].PRF.Precision {
			t.Errorf("%s: precision should fall with k", pair)
		}
	}
}

// TestFigure5Stability: F stays in a reasonable band over a broad range
// of thresholds and degrades at extreme TLSI.
func TestFigure5Stability(t *testing.T) {
	s := setup(t)
	points := s.Figure5(core.DefaultConfig())
	var fAtLowTLSI, fAtHighTLSI float64
	for _, p := range points {
		if p.Pair == wiki.PtEn && p.Threshold == "TLSI" {
			if p.Value < 0.15 && p.Value > 0.05 {
				fAtLowTLSI = p.F
			}
			if p.Value > 0.85 {
				fAtHighTLSI = p.F
			}
		}
	}
	if fAtHighTLSI >= fAtLowTLSI {
		t.Errorf("high TLSI (%.3f) should reduce F vs low TLSI (%.3f)", fAtHighTLSI, fAtLowTLSI)
	}
}

func TestRenderAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full render is slow")
	}
	s := setup(t)
	var buf bytes.Buffer
	if err := RenderAll(&buf, s, core.DefaultConfig()); err != nil {
		t.Fatalf("RenderAll: %v", err)
	}
	for _, want := range []string{"Table 2", "Table 7", "Figure 4", "Figure 7"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("output missing %q", want)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/render_all.golden from a live render")

// TestRenderAllGolden pins every table and figure the paper corpus
// renders: the bytes `benchall -scale full -run all` prints. Regenerate
// with
//
//	go test ./internal/experiments -run TestRenderAllGolden -update
func TestRenderAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale render is slow")
	}
	s, err := NewSetup(synth.DefaultConfig())
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	var buf bytes.Buffer
	if err := RenderAll(&buf, s, core.DefaultConfig()); err != nil {
		t.Fatalf("RenderAll: %v", err)
	}
	path := filepath.Join("testdata", "render_all.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("RenderAll output differs from %s (regenerate with -update if intended):\n%s", path, buf.String())
	}
}
