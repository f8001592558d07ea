package repro

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dict"
)

// TestFacadeEndToEnd drives the entire public API the way a downstream
// user would: generate, dump, reload, match, evaluate, query.
func TestFacadeEndToEnd(t *testing.T) {
	corpus, truth, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	if corpus.Len() == 0 {
		t.Fatal("empty corpus")
	}

	// Dump round-trip through the facade.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "pt.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDump(f, corpus, Portuguese); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := IngestDir(context.Background(), dir, IngestOptions{})
	if err != nil {
		t.Fatalf("IngestDir: %v", err)
	}
	if got := res.PerLang[Portuguese].Pages; got != corpus.LenLang(Portuguese) {
		t.Errorf("reloaded %d pages, want %d", got, corpus.LenLang(Portuguese))
	}

	// Matching.
	result := Match(corpus, PtEn)
	if len(result.Types) != 14 {
		t.Fatalf("type pairs = %d", len(result.Types))
	}
	films, ok := result.ByTypeA("filme")
	if !ok {
		t.Fatal("no film result")
	}
	if !films.Cross[Normalize("direção")]["directed by"] {
		t.Error("direção ~ directed by missing")
	}

	// Evaluation through the facade.
	derived := Correspondences{}
	for a, bs := range films.Cross {
		for b := range bs {
			derived.Add(a, b)
		}
	}
	g := Correspondences{}
	g.Add(Normalize("direção"), "directed by")
	m := MacroScores(derived, g)
	if m.Recall != 1 {
		t.Errorf("macro recall vs singleton truth = %v", m.Recall)
	}

	// Dictionary.
	d := dict.Build(corpus, Portuguese, English)
	if d.Len() == 0 {
		t.Error("empty dictionary")
	}

	// Query pipeline.
	q, err := ParseQuery(`filme(título|nome=?) and ator(ocupação="político")`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	engine := NewQueryEngine(corpus, Portuguese)
	if answers := engine.Run(q, 10); len(answers) == 0 {
		t.Error("no monolingual answers")
	}
	tr := TranslateQuery(q, result)
	if tr.Untranslatable {
		t.Fatal("query untranslatable")
	}
	enEngine := NewQueryEngine(corpus, English)
	if answers := enEngine.Run(tr.Query, 10); len(answers) == 0 {
		t.Error("no translated answers")
	}

	// Case study.
	resVn := Match(corpus, VnEn)
	series, err := CaseStudy(corpus, truth, result, resVn, 5)
	if err != nil {
		t.Fatalf("CaseStudy: %v", err)
	}
	if len(series) != 4 {
		t.Errorf("series = %d", len(series))
	}
}

// TestFacadeSession drives the session API through the facade: options,
// matching, streaming, cache stats and invalidation, plus the HTTP
// handler constructor.
func TestFacadeSession(t *testing.T) {
	corpus, _, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := NewSession(corpus, WithTSim(0.6), WithTLSI(0.1))
	res, err := sess.Match(ctx, PtEn)
	if err != nil {
		t.Fatalf("session Match: %v", err)
	}
	legacy := Match(corpus, PtEn)
	if len(res.Types) != len(legacy.Types) {
		t.Fatalf("session types = %d, legacy = %d", len(res.Types), len(legacy.Types))
	}
	for _, tp := range legacy.Types {
		a := legacy.PerType[tp].CrossPairsSorted()
		b := res.PerType[tp].CrossPairsSorted()
		if len(a) != len(b) {
			t.Errorf("type %v: %d vs %d correspondences", tp, len(b), len(a))
		}
	}

	updates, err := sess.MatchStream(ctx, PtEn)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for u := range updates {
		if u.Err != nil {
			t.Fatalf("stream: %v", u.Err)
		}
		n++
	}
	if n != len(res.Types) {
		t.Errorf("streamed %d types, want %d", n, len(res.Types))
	}

	if st := sess.CacheStats(); st.TypeEntries == 0 || st.Hits == 0 {
		t.Errorf("cache unused: %+v", st)
	}
	if sess.Invalidate(Portuguese) == 0 {
		t.Error("Invalidate dropped nothing")
	}
	if NewHTTPHandler(sess) == nil {
		t.Error("nil HTTP handler")
	}
	if pair, err := ParseLanguagePair("vn-en"); err != nil || pair != VnEn {
		t.Errorf("ParseLanguagePair(vn-en) = %v, %v", pair, err)
	}
}

// TestFacadeBaselines checks the baseline runners exposed on the facade.
func TestFacadeBaselines(t *testing.T) {
	corpus, _, err := GenerateCorpus(SmallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	bouma := RunBouma(corpus, PtEn, "filme", "film", DefaultBoumaConfig())
	if bouma.Pairs() == 0 {
		t.Fatal("Bouma derived nothing")
	}
	if !bouma.Has(Normalize("direção"), "directed by") {
		t.Error("Bouma missed direção ~ directed by")
	}
	lt := dict.NewLabelTranslator(0, 1)
	lt.Add("direção", "directed by")
	for i, cfg := range COMAConfigs(0.01) {
		if coma := RunCOMA(corpus, PtEn, "filme", "film", lt, cfg); coma.Pairs() == 0 {
			t.Errorf("COMA config %d (%s) derived nothing", i, cfg.Label())
		}
	}
}
