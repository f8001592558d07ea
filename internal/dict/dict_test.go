package dict

import (
	"testing"

	"repro/internal/wiki"
)

func linkedCorpus(t *testing.T) *wiki.Corpus {
	t.Helper()
	c := wiki.NewCorpus()
	add := func(lang wiki.Language, title string, links map[wiki.Language]string) {
		a := &wiki.Article{Language: lang, Title: title, CrossLinks: links}
		c.MustAdd(a)
	}
	add(wiki.Portuguese, "Estados Unidos", map[wiki.Language]string{wiki.English: "United States"})
	add(wiki.Portuguese, "Irlanda", map[wiki.Language]string{wiki.English: "Ireland"})
	add(wiki.English, "Ireland", map[wiki.Language]string{wiki.Portuguese: "Irlanda"})
	// Link recorded only on the English side.
	add(wiki.English, "Bernardo Bertolucci", map[wiki.Language]string{wiki.Portuguese: "Bernardo Bertolucci (cineasta)"})
	return c
}

func TestBuildFromCrossLinks(t *testing.T) {
	c := linkedCorpus(t)
	d := Build(c, wiki.Portuguese, wiki.English)
	if d.Len() != 3 {
		t.Fatalf("len = %d, entries = %v", d.Len(), d.Entries())
	}
	if got, ok := d.Translate("Estados Unidos"); !ok || got != "United States" {
		t.Errorf("Translate(Estados Unidos) = %q, %v", got, ok)
	}
	// Normalized lookup: case and diacritics insensitive.
	if got, ok := d.Translate("estados unidos"); !ok || got != "United States" {
		t.Errorf("normalized lookup = %q, %v", got, ok)
	}
	// Entry contributed by an en-side cross-link.
	if got, ok := d.Translate("Bernardo Bertolucci (cineasta)"); !ok || got != "Bernardo Bertolucci" {
		t.Errorf("en-side entry = %q, %v", got, ok)
	}
	if _, ok := d.Translate("missing"); ok {
		t.Error("unexpected hit for missing phrase")
	}
}

func TestTranslateOrKeep(t *testing.T) {
	d := New(wiki.Portuguese, wiki.English)
	d.Add("Irlanda", "Ireland")
	if got := d.TranslateOrKeep("Irlanda"); got != "Ireland" {
		t.Errorf("hit = %q", got)
	}
	if got := d.TranslateOrKeep("1963"); got != "1963" {
		t.Errorf("miss = %q", got)
	}
}

func TestAddIgnoresEmpty(t *testing.T) {
	d := New(wiki.Portuguese, wiki.English)
	d.Add("", "x")
	d.Add("y", "")
	d.Add("  ", "z")
	if d.Len() != 0 {
		t.Errorf("len = %d", d.Len())
	}
}

func TestLabelTranslatorCorrectAndLiteral(t *testing.T) {
	lt := NewLabelTranslator(0, 1)
	lt.Add("elenco original", "starring", "original cast")
	lt.Add("direção", "directed by")
	if got, ok := lt.Translate("Elenco Original"); !ok || got != "starring" {
		t.Errorf("zero error rate = %q, %v", got, ok)
	}
	if got, ok := lt.Translate("direção"); !ok || got != "directed by" {
		t.Errorf("no literal form = %q, %v", got, ok)
	}
	if _, ok := lt.Translate("unknown"); ok {
		t.Error("unexpected hit")
	}

	always := NewLabelTranslator(1, 1)
	always.Add("elenco original", "starring", "original cast")
	if got, _ := always.Translate("elenco original"); got != "original cast" {
		t.Errorf("error rate 1 = %q, want literal", got)
	}
}

func TestLabelTranslatorLiteralOnly(t *testing.T) {
	lt := NewLabelTranslator(0, 1)
	lt.wrong["x"] = "literal x"
	if got, ok := lt.Translate("x"); !ok || got != "literal x" {
		t.Errorf("literal-only = %q, %v", got, ok)
	}
	if lt.Len() != 1 {
		t.Errorf("Len = %d", lt.Len())
	}
}

func TestLabelTranslatorErrorRateStatistics(t *testing.T) {
	lt := NewLabelTranslator(0.5, 42)
	lt.Add("kịch bản", "written by", "script")
	literal := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if got, _ := lt.Translate("kịch bản"); got == "script" {
			literal++
		}
	}
	frac := float64(literal) / n
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("literal fraction = %v, want ≈0.5", frac)
	}
}

func TestDictionaryEqual(t *testing.T) {
	a := New(wiki.Portuguese, wiki.English)
	a.Add("Cidade de Deus", "City of God")
	a.Add("Central do Brasil", "Central Station")

	b := New(wiki.Portuguese, wiki.English)
	b.Add("Central do Brasil", "Central Station")
	b.Add("Cidade de Deus", "City of God")
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("same entries in different insertion order not Equal")
	}

	var nilDict *Dictionary
	if !nilDict.Equal(nil) {
		t.Error("nil.Equal(nil) = false")
	}
	if a.Equal(nil) || nilDict.Equal(a) {
		t.Error("nil compared equal to a populated dictionary")
	}

	c := New(wiki.Vietnamese, wiki.English)
	c.Add("Cidade de Deus", "City of God")
	c.Add("Central do Brasil", "Central Station")
	if a.Equal(c) {
		t.Error("dictionaries with different language pairs compared equal")
	}

	d := New(wiki.Portuguese, wiki.English)
	d.Add("Cidade de Deus", "City of God")
	if a.Equal(d) {
		t.Error("different sizes compared equal")
	}
	d.Add("Central do Brasil", "Estação Central")
	if a.Equal(d) {
		t.Error("different target titles compared equal")
	}
}
