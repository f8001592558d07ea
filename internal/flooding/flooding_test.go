package flooding

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	testTD    *sim.TypeData
	testTruth eval.Correspondences
)

func filmData(t *testing.T) (*sim.TypeData, eval.Correspondences) {
	t.Helper()
	if testTD == nil {
		c, g, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		d := dict.Build(c, wiki.Portuguese, wiki.English)
		testTD = sim.BuildTypeData(c, wiki.PtEn, "filme", "film", d)
		freqA, freqB := eval.AttributeFrequencies(c, wiki.PtEn, "filme", "film")
		testTruth = eval.TruthPairs(freqA, freqB, wiki.PtEn, g.Types["film"].Correct)
	}
	return testTD, testTruth
}

func TestMatchFindsCoreAlignments(t *testing.T) {
	td, truth := filmData(t)
	derived := Match(td, DefaultConfig())
	if derived.Pairs() == 0 {
		t.Fatal("flooding derived nothing")
	}
	m := eval.Macro(derived, truth)
	t.Logf("flooding film pt-en: P=%.2f R=%.2f F=%.2f (%d pairs)",
		m.Precision, m.Recall, m.F, derived.Pairs())
	if m.F < 0.5 {
		t.Errorf("flooding F = %.2f, expected a competitive matcher", m.F)
	}
	if !derived.Has("direcao", "directed by") {
		t.Error("missing direção ~ directed by")
	}
}

func TestFloodingConverges(t *testing.T) {
	td, _ := filmData(t)
	g := build(td, DefaultConfig())
	iters := g.run(DefaultConfig())
	if iters == 0 || iters >= DefaultConfig().MaxIters {
		t.Errorf("iterations = %d, expected convergence before the cap", iters)
	}
	for _, n := range g.nodes {
		if n.sigma < 0 || n.sigma > 1+1e-9 {
			t.Fatalf("sigma out of range: %v", n.sigma)
		}
	}
}

func TestFloodingDeterministic(t *testing.T) {
	td, _ := filmData(t)
	a := Match(td, DefaultConfig())
	b := Match(td, DefaultConfig())
	if a.Pairs() != b.Pairs() {
		t.Fatalf("non-deterministic pair counts: %d vs %d", a.Pairs(), b.Pairs())
	}
	for x, ys := range a {
		for y := range ys {
			if !b.Has(x, y) {
				t.Fatalf("pair (%s, %s) missing in second run", x, y)
			}
		}
	}
}

func TestFloodingPropagationHelps(t *testing.T) {
	// Flooding should lift the rank of true pairs whose neighbours are
	// also true pairs: compare MAP of converged scores vs initial scores.
	td, truth := filmData(t)
	cfg := DefaultConfig()
	converged := scores(td, cfg)
	var initial []eval.RankedPair
	for _, p := range td.CrossPairs() {
		init := td.VSim(p[0], p[1])
		if l := td.LSim(p[0], p[1]); l > init {
			init = l
		}
		initial = append(initial, eval.RankedPair{
			A: td.Attrs[p[0]].Name, B: td.Attrs[p[1]].Name, Score: init,
		})
	}
	mapInit := eval.MAP(initial, truth)
	mapConv := eval.MAP(converged, truth)
	t.Logf("MAP initial=%.3f converged=%.3f", mapInit, mapConv)
	if mapConv < mapInit-0.05 {
		t.Errorf("flooding degraded the ordering: %.3f → %.3f", mapInit, mapConv)
	}
}

func TestEmptyTypeData(t *testing.T) {
	td := &sim.TypeData{Pair: wiki.PtEn}
	if got := Match(td, DefaultConfig()); got.Pairs() != 0 {
		t.Errorf("empty input derived %d pairs", got.Pairs())
	}
}

func TestSelectThresholdWidens(t *testing.T) {
	td, _ := filmData(t)
	strict := DefaultConfig()
	loose := DefaultConfig()
	loose.SelectThreshold = 0.5
	a := Match(td, strict)
	b := Match(td, loose)
	if b.Pairs() < a.Pairs() {
		t.Errorf("looser selection found fewer pairs: %d < %d", b.Pairs(), a.Pairs())
	}
}

// scores returns every cross-language pair with its converged
// similarity.
func scores(td *sim.TypeData, cfg Config) []eval.RankedPair {
	g := build(td, cfg)
	g.run(cfg)
	out := make([]eval.RankedPair, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, eval.RankedPair{
			A: td.Attrs[n.i].Name, B: td.Attrs[n.j].Name, Score: n.sigma,
		})
	}
	return out
}
