package synth

import (
	"testing"

	"repro/internal/text"
	"repro/internal/wiki"
)

// smallCorpus is generated once and shared by read-only tests.
var (
	smallCorpus *wiki.Corpus
	smallTruth  *GroundTruth
)

func genSmall(t *testing.T) (*wiki.Corpus, *GroundTruth) {
	t.Helper()
	if smallCorpus == nil {
		c, g, err := Generate(SmallConfig())
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		smallCorpus, smallTruth = c, g
	}
	return smallCorpus, smallTruth
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SmallConfig()
	c1, _, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate 1: %v", err)
	}
	c2, _, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate 2: %v", err)
	}
	if c1.Len() != c2.Len() {
		t.Fatalf("sizes differ: %d vs %d", c1.Len(), c2.Len())
	}
	for _, lang := range c1.Languages() {
		a1, a2 := c1.Articles(lang), c2.Articles(lang)
		if len(a1) != len(a2) {
			t.Fatalf("%s: %d vs %d articles", lang, len(a1), len(a2))
		}
		for i := range a1 {
			if a1[i].Title != a2[i].Title {
				t.Fatalf("%s article %d: %q vs %q", lang, i, a1[i].Title, a2[i].Title)
			}
			r1, r2 := wiki.RenderPage(a1[i]), wiki.RenderPage(a2[i])
			if r1 != r2 {
				t.Fatalf("%s article %q differs between runs", lang, a1[i].Title)
			}
		}
	}
}

func TestGeneratePairCounts(t *testing.T) {
	cfg := SmallConfig()
	c, truth := genSmall(t)
	for canon, want := range cfg.PtEnPairs {
		typeName := "" // localized pt type name
		for local, cn := range truth.TypeNameToCanon[wiki.Portuguese] {
			if cn == canon {
				typeName = local
			}
		}
		if typeName == "" {
			t.Errorf("no pt type name for %s", canon)
			continue
		}
		got := 0
		for _, p := range c.Pairs(wiki.PtEn) {
			if p.A.Type == typeName {
				got++
			}
		}
		if got != want {
			t.Errorf("%s pt-en pairs = %d, want %d", canon, got, want)
		}
	}
	// Vietnamese has exactly the four paper types.
	if got := len(c.Types(wiki.Vietnamese)); got != 4 {
		t.Errorf("vn types = %d (%v), want 4", got, c.Types(wiki.Vietnamese))
	}
	if got := len(c.Types(wiki.Portuguese)); got != 14 {
		t.Errorf("pt types = %d, want 14", got)
	}
}

func TestGenerateCorpusValidity(t *testing.T) {
	c, _ := genSmall(t)
	for _, lang := range c.Languages() {
		for _, a := range c.Articles(lang) {
			if err := a.Validate(); err != nil {
				t.Fatalf("invalid article: %v", err)
			}
		}
	}
	// Cross-links of paired articles resolve to real articles.
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		pairs := c.Pairs(pair)
		if len(pairs) == 0 {
			t.Fatalf("no pairs for %s", pair)
		}
		for _, p := range pairs {
			if b, ok := c.Resolve(p.A, p.B.Language); ok && b == p.B {
				continue
			}
			if a, ok := c.Resolve(p.B, p.A.Language); !ok || a != p.A {
				t.Fatalf("pair %s / %s not cross-linked", p.A.Key(), p.B.Key())
			}
		}
	}
}

// measureOverlap computes the ground-truth-based attribute overlap of
// Appendix A / Table 5 directly on the corpus.
func measureOverlap(c *wiki.Corpus, truth *GroundTruth, pair wiki.LanguagePair, canonType string) float64 {
	var sum float64
	n := 0
	tt := truth.Types[canonType]
	for _, p := range c.Pairs(pair) {
		if cn, _ := truth.CanonType(pair.A, p.A.Type); cn != canonType {
			continue
		}
		inter := 0
		for _, a := range p.A.Infobox.Schema() {
			for _, b := range p.B.Infobox.Schema() {
				if tt.Correct(pair.A, a, pair.B, b) {
					inter++
					break
				}
			}
		}
		union := p.A.Infobox.Len() + p.B.Infobox.Len() - inter
		if union > 0 {
			sum += float64(inter) / float64(union)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestOverlapMatchesTable5Targets(t *testing.T) {
	c, truth := genSmall(t)
	checks := []struct {
		pair   wiki.LanguagePair
		canon  string
		target float64
		tol    float64
	}{
		{wiki.PtEn, "film", 0.36, 0.15},
		{wiki.PtEn, "channel", 0.15, 0.15},
		{wiki.PtEn, "writer", 0.63, 0.15},
		{wiki.VnEn, "film", 0.87, 0.15},
		// Only ~10 vn-en actor pairs exist at SmallConfig scale, so the
		// estimate is wide.
		{wiki.VnEn, "actor", 0.46, 0.25},
	}
	for _, ck := range checks {
		got := measureOverlap(c, truth, ck.pair, ck.canon)
		if got < ck.target-ck.tol || got > ck.target+ck.tol {
			t.Errorf("%s %s overlap = %.2f, target %.2f (±%.2f)", ck.pair, ck.canon, got, ck.target, ck.tol)
		}
	}
	// The headline heterogeneity contrast must hold: Vn-En film is far
	// more homogeneous than Pt-En film.
	vn := measureOverlap(c, truth, wiki.VnEn, "film")
	pt := measureOverlap(c, truth, wiki.PtEn, "film")
	if vn <= pt+0.2 {
		t.Errorf("vn-en film overlap (%.2f) should exceed pt-en (%.2f) by a wide margin", vn, pt)
	}
}

func TestGroundTruthPolysemy(t *testing.T) {
	_, truth := genSmall(t)
	actor := truth.Types["actor"]
	// English "born" realizes both birth date and birth place.
	canons := actor.Canons(wiki.English, "born")
	if len(canons) != 2 {
		t.Fatalf("born canons = %v", canons)
	}
	if !actor.Correct(wiki.English, "born", wiki.Portuguese, "nascimento") {
		t.Error("born ~ nascimento should be correct")
	}
	if !actor.Correct(wiki.English, "born", wiki.Vietnamese, "nơi sinh") {
		t.Error("born ~ nơi sinh should be correct (birth place)")
	}
	if actor.Correct(wiki.English, "died", wiki.Portuguese, "nascimento") {
		t.Error("died ~ nascimento should be incorrect")
	}
	// One-to-many: died matches both falecimento and morte.
	if !actor.Correct(wiki.English, "died", wiki.Portuguese, "falecimento") ||
		!actor.Correct(wiki.English, "died", wiki.Portuguese, "morte") {
		t.Error("died should match falecimento and morte")
	}
	// Intra-language synonyms are correct pairs too.
	if !actor.Correct(wiki.Portuguese, "falecimento", wiki.Portuguese, "morte") {
		t.Error("falecimento ~ morte (intra-language) should be correct")
	}
	// Vietnamese kịch bản realizes written by and story by on film.
	film := truth.Types["film"]
	if got := film.Canons(wiki.Vietnamese, "kịch bản"); len(got) != 2 {
		t.Errorf("kịch bản canons = %v", got)
	}
}

func TestGroundTruthCrossPairs(t *testing.T) {
	_, truth := genSmall(t)
	film := truth.Types["film"]
	pairs := film.CrossPairs(wiki.PtEn)
	if len(pairs) < 15 {
		t.Fatalf("film pt-en cross pairs = %d, want a rich set", len(pairs))
	}
	found := false
	for _, p := range pairs {
		if p[0] == text.Normalize("direção") && p[1] == "directed by" {
			found = true
		}
	}
	if !found {
		t.Error("direção ~ directed by missing from cross pairs")
	}
}

func TestSeededQueryTargetsExist(t *testing.T) {
	c, truth := genSmall(t)
	// Francis Ford Coppola directs at least one Portuguese film.
	foundCoppola := false
	for _, a := range c.Articles(wiki.Portuguese) {
		if a.Infobox == nil {
			continue
		}
		if av, ok := a.Infobox.Get("direção"); ok && av.Text == "Francis Ford Coppola" {
			foundCoppola = true
			break
		}
	}
	if !foundCoppola {
		t.Error("no Portuguese film directed by Francis Ford Coppola")
	}
	// Politician actors exist in ground truth entities.
	politicians := 0
	for _, e := range truth.Entities["actor"] {
		for _, atom := range e.Values["occupation"] {
			if atom.Kind == KindTerm && atom.Ref != nil && atom.Ref.Titles[wiki.English] == "politician" {
				politicians++
			}
		}
	}
	if politicians == 0 {
		t.Error("no politician actors seeded")
	}
	// Jazz artists from France exist.
	jazzFrance := 0
	for _, e := range truth.Entities["artist"] {
		hasJazz, hasFrance := false, false
		for _, atom := range e.Values["genre"] {
			if atom.Ref != nil && atom.Ref.Titles[wiki.English] == "Jazz" {
				hasJazz = true
			}
		}
		for _, atom := range e.Values["origin"] {
			if atom.Ref != nil && atom.Ref.Titles[wiki.English] == "France" {
				hasFrance = true
			}
		}
		if hasJazz && hasFrance {
			jazzFrance++
		}
	}
	if jazzFrance == 0 {
		t.Error("no French Jazz artists seeded")
	}
}

func TestStubArticlesAndDictionaryMaterial(t *testing.T) {
	c, _ := genSmall(t)
	// Place stubs exist in all three languages; cross-links cover roughly
	// StubCrossLinkProb of them.
	if _, ok := c.Get(wiki.English, "United States"); !ok {
		t.Fatal("United States stub missing")
	}
	if _, ok := c.Get(wiki.Portuguese, "Estados Unidos"); !ok {
		t.Error("Estados Unidos stub missing")
	}
	stubs, linked := 0, 0
	for _, a := range c.Articles(wiki.English) {
		if a.Infobox != nil {
			continue
		}
		stubs++
		if _, ok := a.CrossLink(wiki.Portuguese); ok {
			linked++
		}
	}
	if stubs == 0 {
		t.Fatal("no stub articles")
	}
	frac := float64(linked) / float64(stubs)
	if frac < 0.6 || frac > 0.95 {
		t.Errorf("stub cross-link coverage = %.2f, want ≈0.8", frac)
	}
	// Day-month stubs appear when dates are linked.
	dayMonthSeen := false
	for _, a := range c.Articles(wiki.Portuguese) {
		if a.Infobox == nil && a.Title != "" {
			if _, ok := a.CrossLink(wiki.English); ok && len(a.Title) > 3 && a.Title[1] == ' ' || len(a.Title) > 4 && a.Title[2] == ' ' {
				// crude check: "18 de dezembro" style
				if len(a.Title) > 6 && a.Title[2:5] == " de" {
					dayMonthSeen = true
					break
				}
			}
		}
	}
	if !dayMonthSeen {
		t.Error("no day-month stub articles found")
	}
}

func TestNoCooccurAttributeNeverPairs(t *testing.T) {
	c, truth := genSmall(t)
	for _, p := range c.Pairs(wiki.PtEn) {
		if cn, _ := truth.CanonType(wiki.Portuguese, p.A.Type); cn != "film" {
			continue
		}
		if p.A.Infobox.Has("prêmios") && p.B.Infobox.Has("awards") {
			t.Fatalf("awards/prêmios co-occur in dual infobox %s / %s", p.A.Title, p.B.Title)
		}
	}
}

func TestEnglishCoverageExceedsOtherLanguages(t *testing.T) {
	c, _ := genSmall(t)
	enBoxes, ptBoxes, vnBoxes := 0, 0, 0
	count := func(lang wiki.Language) int {
		n := 0
		for _, a := range c.Articles(lang) {
			if a.Infobox != nil {
				n++
			}
		}
		return n
	}
	enBoxes, ptBoxes, vnBoxes = count(wiki.English), count(wiki.Portuguese), count(wiki.Vietnamese)
	if enBoxes <= ptBoxes+vnBoxes {
		t.Errorf("en coverage (%d) should exceed pt (%d) + vn (%d)", enBoxes, ptBoxes, vnBoxes)
	}
}

func TestSynonymSplittingProducesBothSurfaces(t *testing.T) {
	c, _ := genSmall(t)
	seen := map[string]bool{}
	for _, a := range c.Articles(wiki.Portuguese) {
		if a.Type != "ator" || a.Infobox == nil {
			continue
		}
		for _, name := range a.Infobox.Schema() {
			seen[name] = true
		}
	}
	for _, want := range []string{"falecimento", "morte", "nascimento", "data de nascimento"} {
		if !seen[want] {
			t.Errorf("surface name %q never generated for ator", want)
		}
	}
}
