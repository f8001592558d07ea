package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// TestDumpsToMatchingIntegration drives the on-disk pipeline end to end:
// generate → write XML dumps to disk → reload through the streaming
// parser → run WikiMatch — and checks the result is identical to the
// in-memory run.
func TestDumpsToMatchingIntegration(t *testing.T) {
	corpus, _, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	dir := t.TempDir()
	for _, lang := range corpus.Languages() {
		f, err := os.Create(filepath.Join(dir, string(lang)+".xml"))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteDump(f, corpus, lang); err != nil {
			t.Fatalf("WriteDump(%s): %v", lang, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	reloaded := NewCorpus()
	for _, lang := range corpus.Languages() {
		f, err := os.Open(filepath.Join(dir, string(lang)+".xml"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := LoadDump(reloaded, f, lang)
		f.Close()
		if err != nil {
			t.Fatalf("LoadDump(%s): %v", lang, err)
		}
		if len(res.Errors) > 0 {
			t.Fatalf("LoadDump(%s): %d errors, first: %v", lang, len(res.Errors), res.Errors[0])
		}
	}

	orig := Match(corpus, PtEn)
	again := Match(reloaded, PtEn)
	if len(orig.Types) != len(again.Types) {
		t.Fatalf("type pairs differ: %d vs %d", len(orig.Types), len(again.Types))
	}
	for _, tp := range orig.Types {
		a := orig.PerType[tp].CrossPairsSorted()
		b := again.PerType[tp].CrossPairsSorted()
		if len(a) != len(b) {
			t.Fatalf("type %v: %d vs %d correspondences", tp, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("type %v pair %d: %v vs %v", tp, i, a[i], b[i])
			}
		}
	}
}

// TestCategoryTypingIntegration re-types a template-stripped corpus from
// its categories (the paper's alternative typing mechanism) and checks
// entity-type matching still succeeds.
func TestCategoryTypingIntegration(t *testing.T) {
	corpus, _, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the corpus with article types blanked, as if the infobox
	// templates had been unusable.
	stripped := NewCorpus()
	for _, lang := range corpus.Languages() {
		for _, a := range corpus.Articles(lang) {
			cp := a.Clone()
			cp.Type = ""
			if err := stripped.Add(cp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(stripped.Types(Portuguese)); got != 0 {
		t.Fatalf("stripped corpus still has %d types", got)
	}
	n := stripped.AssignTypesFromCategories(synth.CategoryTypes())
	if n == 0 {
		t.Fatal("no articles typed from categories")
	}
	pairs := core.MatchEntityTypes(stripped, wiki.PtEn)
	if len(pairs) != 14 {
		t.Fatalf("type pairs after category typing = %d, want 14", len(pairs))
	}
}

// TestConfidenceOrdersTranslationAlternatives checks the uncertainty
// extension: translated constraints list their attribute alternatives in
// confidence order.
func TestConfidenceOrdersTranslationAlternatives(t *testing.T) {
	corpus, _, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	res := Match(corpus, PtEn)
	tr, _ := res.ByTypeA("ator")
	q, err := ParseQuery(`ator(falecimento="x")`)
	if err != nil {
		t.Fatal(err)
	}
	trans := TranslateQuery(q, res)
	if trans.Untranslatable || len(trans.Query.Blocks) == 0 {
		t.Fatal("actor query untranslatable")
	}
	attrs := trans.Query.Blocks[0].Constraints[0].Attrs
	if len(attrs) == 0 {
		t.Fatal("no translated alternatives")
	}
	prev := 2.0
	for _, a := range attrs {
		conf := tr.Confidence(Normalize("falecimento"), a)
		if conf > prev+1e-9 {
			t.Errorf("alternatives not in confidence order: %v", attrs)
		}
		prev = conf
	}
}
