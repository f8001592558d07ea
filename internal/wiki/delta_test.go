package wiki

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// deltaCorpus builds a small hand-written corpus for delta tests: three
// Portuguese articles (insertion order A, B, C) and two English ones.
func deltaCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	mk := func(lang Language, title, typ string, cross map[Language]string) *Article {
		a := &Article{Language: lang, Title: title, Type: typ, CrossLinks: cross}
		if typ != "" {
			a.Infobox = &Infobox{Template: "Infobox " + typ,
				Attrs: []AttributeValue{{Name: "nome", Text: title}}}
		}
		return a
	}
	c.MustAdd(mk(Portuguese, "Alfa", "filme", map[Language]string{English: "Alpha"}))
	c.MustAdd(mk(Portuguese, "Bravo", "filme", map[Language]string{English: "Bravo"}))
	c.MustAdd(mk(Portuguese, "Carlos", "livro", nil))
	c.MustAdd(mk(English, "Alpha", "film", nil))
	c.MustAdd(mk(English, "Bravo", "film", nil))
	return c
}

func ptTitles(c *Corpus) []string {
	var out []string
	for _, a := range c.Articles(Portuguese) {
		out = append(out, a.Title)
	}
	return out
}

func TestWithDeltaAddUpdateRemove(t *testing.T) {
	c := deltaCorpus(t)
	oldLen := c.Len()
	upd := c.Articles(Portuguese)[1].Clone() // Bravo
	upd.Infobox.Attrs[0].Text = "Bravo (editado)"
	add := &Article{Language: English, Title: "Delta", Type: "film",
		Infobox: &Infobox{Template: "Infobox film", Attrs: []AttributeValue{{Name: "name", Text: "Delta"}}}}

	out, eff, err := c.WithDelta(Delta{
		Upserts: []*Article{upd, add},
		Removes: []Key{{Language: Portuguese, Title: "Carlos"}},
	})
	if err != nil {
		t.Fatalf("WithDelta: %v", err)
	}
	if eff.Added != 1 || eff.Updated != 1 || eff.Removed != 1 {
		t.Errorf("effect = %+v, want 1/1/1", eff)
	}

	// The old corpus is untouched.
	if c.Len() != oldLen {
		t.Errorf("source corpus length changed: %d → %d", oldLen, c.Len())
	}
	if a, ok := c.Get(Portuguese, "Bravo"); !ok || a.Infobox.Attrs[0].Text != "Bravo" {
		t.Error("source corpus article was mutated")
	}
	if _, ok := c.Get(Portuguese, "Carlos"); !ok {
		t.Error("removed article vanished from the source corpus")
	}

	// The new corpus has the edits.
	if _, ok := out.Get(Portuguese, "Carlos"); ok {
		t.Error("removed article survives in the new corpus")
	}
	if a, ok := out.Get(Portuguese, "Bravo"); !ok || a.Infobox.Attrs[0].Text != "Bravo (editado)" {
		t.Error("updated article not replaced in the new corpus")
	}
	if _, ok := out.Get(English, "Delta"); !ok {
		t.Error("added article missing from the new corpus")
	}

	// Effect bookkeeping: touched languages sorted, touched types recorded.
	if langs := eff.Languages(); len(langs) != 2 || langs[0] != English || langs[1] != Portuguese {
		t.Errorf("Languages() = %v, want [en pt]", langs)
	}
	if !eff.Types[Portuguese]["filme"] || !eff.Types[Portuguese]["livro"] {
		t.Errorf("pt touched types = %v, want filme and livro", eff.Types[Portuguese])
	}
	if !eff.Types[English]["film"] {
		t.Errorf("en touched types = %v, want film", eff.Types[English])
	}
}

// TestWithDeltaPreservesOrder: replacements stay in place, additions
// append — Pairs() must enumerate surviving articles in the old order so
// artifacts of untouched types stay byte-identical.
func TestWithDeltaPreservesOrder(t *testing.T) {
	c := deltaCorpus(t)
	upd := c.Articles(Portuguese)[1].Clone()
	upd.Infobox.Attrs[0].Text = "editado"
	add := &Article{Language: Portuguese, Title: "Aaa", Type: "filme",
		Infobox: &Infobox{Template: "Infobox filme", Attrs: []AttributeValue{{Name: "nome", Text: "Aaa"}}}}

	out, _, err := c.WithDelta(Delta{Upserts: []*Article{add, upd}})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(ptTitles(out), ",")
	// "Aaa" sorts before every surviving title but must still append.
	if got != "Alfa,Bravo,Carlos,Aaa" {
		t.Errorf("pt order = %s, want Alfa,Bravo,Carlos,Aaa", got)
	}
}

// TestWithDeltaSharesUntouched: articles the delta does not touch are
// shared by pointer (they are immutable); edited ones are cloned so the
// caller's article cannot reach into the corpus.
func TestWithDeltaSharesUntouched(t *testing.T) {
	c := deltaCorpus(t)
	upd := c.Articles(Portuguese)[1].Clone()
	out, _, err := c.WithDelta(Delta{Upserts: []*Article{upd}})
	if err != nil {
		t.Fatal(err)
	}
	oldAlfa, _ := c.Get(Portuguese, "Alfa")
	newAlfa, _ := out.Get(Portuguese, "Alfa")
	if oldAlfa != newAlfa {
		t.Error("untouched article was copied instead of shared")
	}
	newBravo, _ := out.Get(Portuguese, "Bravo")
	if newBravo == upd {
		t.Error("upserted article not cloned into the corpus")
	}
	upd.Infobox.Attrs[0].Text = "mutated afterwards"
	if newBravo.Infobox.Attrs[0].Text == "mutated afterwards" {
		t.Error("later mutation of the caller's article reached the corpus")
	}
}

// TestWithDeltaUntypedEditTouchesLanguage: an edit to an article without
// an infobox still records the language as touched (titles and
// cross-links feed the pair dictionary) with an empty type set.
func TestWithDeltaUntypedEditTouchesLanguage(t *testing.T) {
	c := NewCorpus()
	c.MustAdd(&Article{Language: Portuguese, Title: "Solto"})
	upd := &Article{Language: Portuguese, Title: "Solto",
		CrossLinks: map[Language]string{English: "Loose"}}
	_, eff, err := c.WithDelta(Delta{Upserts: []*Article{upd}})
	if err != nil {
		t.Fatal(err)
	}
	tm, ok := eff.Types[Portuguese]
	if !ok {
		t.Fatal("touched language missing from effect")
	}
	if len(tm) != 0 {
		t.Errorf("untyped edit recorded types %v", tm)
	}
}

// TestWithDeltaTypeChangeTouchesBoth: replacing an article under a new
// entity type records both the old and the new type as touched.
func TestWithDeltaTypeChangeTouchesBoth(t *testing.T) {
	c := deltaCorpus(t)
	upd := &Article{Language: Portuguese, Title: "Alfa", Type: "livro",
		Infobox: &Infobox{Template: "Infobox livro", Attrs: []AttributeValue{{Name: "nome", Text: "Alfa"}}}}
	_, eff, err := c.WithDelta(Delta{Upserts: []*Article{upd}})
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Types[Portuguese]["filme"] || !eff.Types[Portuguese]["livro"] {
		t.Errorf("type change touched %v, want filme and livro", eff.Types[Portuguese])
	}
}

// TestWithDeltaStructural pins which edits DeltaEffect.Structural
// reports: those that can change the title dictionary or the entity-type
// alignment, i.e. add or remove an article or change its type, its
// cross-links or whether it has an infobox.
func TestWithDeltaStructural(t *testing.T) {
	c := deltaCorpus(t)
	c.MustAdd(&Article{Language: Portuguese, Title: "Delta"}) // no infobox, nil links
	edit := func(title string, change func(*Article)) Delta {
		a, _ := c.Get(Portuguese, title)
		u := a.Clone()
		change(u)
		return Delta{Upserts: []*Article{u}}
	}
	cases := []struct {
		name string
		d    Delta
		want bool
	}{
		{"value only", edit("Alfa", func(a *Article) { a.Infobox.Attrs[0].Text = "Alfa (editado)" }), false},
		{"template only", edit("Alfa", func(a *Article) { a.Infobox.Template = "Infobox cinema" }), false},
		{"categories only", edit("Alfa", func(a *Article) { a.Categories = []string{"Editado"} }), false},
		{"nil to empty cross-links", edit("Delta", func(a *Article) { a.CrossLinks = map[Language]string{} }), false},
		{"type change", edit("Alfa", func(a *Article) { a.Type = "livro" }), true},
		{"infobox removed", edit("Alfa", func(a *Article) { a.Infobox = nil }), true},
		{"infobox added", edit("Delta", func(a *Article) { a.Infobox = &Infobox{Template: "Infobox filme"} }), true},
		{"cross-link added", edit("Carlos", func(a *Article) { a.SetCrossLink(English, "Charles") }), true},
		{"cross-link removed", edit("Alfa", func(a *Article) { delete(a.CrossLinks, English) }), true},
		{"cross-link retargeted", edit("Alfa", func(a *Article) { a.SetCrossLink(English, "Bravo") }), true},
		{"add", Delta{Upserts: []*Article{{Language: Portuguese, Title: "Eco"}}}, true},
		{"remove", Delta{Removes: []Key{{Language: Portuguese, Title: "Delta"}}}, true},
		{"value edit and add", Delta{
			Upserts: append(edit("Bravo", func(a *Article) { a.Infobox.Attrs[0].Text = "x" }).Upserts,
				&Article{Language: Portuguese, Title: "Eco"})}, true},
	}
	for _, tc := range cases {
		_, eff, err := c.WithDelta(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if eff.Structural != tc.want {
			t.Errorf("%s: Structural = %t, want %t", tc.name, eff.Structural, tc.want)
		}
	}
}

func TestWithDeltaErrors(t *testing.T) {
	c := deltaCorpus(t)
	upd := c.Articles(Portuguese)[0].Clone()
	cases := []struct {
		name string
		d    Delta
		want string
	}{
		{"empty", Delta{}, "no edits"},
		{"nil upsert", Delta{Upserts: []*Article{nil}}, "nil upsert"},
		{"invalid article", Delta{Upserts: []*Article{{Language: Portuguese}}}, "empty title"},
		{"duplicate upsert", Delta{Upserts: []*Article{upd, upd.Clone()}}, "duplicate upsert"},
		{"duplicate remove", Delta{Removes: []Key{upd.Key(), upd.Key()}}, "duplicate remove"},
		{"upsert and remove", Delta{Upserts: []*Article{upd}, Removes: []Key{upd.Key()}}, "both upserted and removed"},
	}
	for _, tc := range cases {
		if _, _, err := c.WithDelta(tc.d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	_, _, err := c.WithDelta(Delta{Removes: []Key{{Language: Portuguese, Title: "Nunca"}}})
	if !errors.Is(err, ErrNoSuchArticle) {
		t.Errorf("remove missing: err = %v, want ErrNoSuchArticle", err)
	}
	// A rejected delta leaves the corpus untouched.
	if c.Len() != 5 {
		t.Errorf("corpus changed by failed deltas: len = %d", c.Len())
	}
}

// TestWithDeltaAfterCategoryTyping edits articles of a type list that
// mixes template-typed articles with ones AssignTypesFromCategories
// typed later: each edit must replace its own article and leave the
// others, and the list must stay in language order.
func TestWithDeltaAfterCategoryTyping(t *testing.T) {
	c := NewCorpus()
	for _, x := range []struct{ title, typ string }{
		{"Alpha", "film"}, {"Bravo", ""}, {"Charlie", ""}, {"Delta", "film"}, {"Echo", ""},
	} {
		c.MustAdd(&Article{Language: English, Title: x.title, Type: x.typ, Categories: []string{"Films"},
			Infobox: &Infobox{Template: "Infobox film", Attrs: []AttributeValue{{Name: "name", Text: x.title}}}})
	}
	if n := c.AssignTypesFromCategories(CategoryTypeMap{English: {"Films": "film"}}); n != 3 {
		t.Fatalf("assigned = %d, want 3", n)
	}
	want := []string{"Alpha", "Bravo", "Charlie", "Delta", "Echo"}
	films := func(c *Corpus) []string {
		var out []string
		for _, a := range c.OfType(English, "film") {
			out = append(out, a.Title)
		}
		return out
	}
	if got := films(c); !slices.Equal(got, want) {
		t.Fatalf("film list after category typing = %q, want %q", got, want)
	}
	for _, title := range []string{"Bravo", "Echo", "Alpha"} {
		a, _ := c.Get(English, title)
		u := a.Clone()
		u.Infobox.Attrs[0].Text += " (edited)"
		out, _, err := c.WithDelta(Delta{Upserts: []*Article{u}})
		if err != nil {
			t.Fatal(err)
		}
		if got := films(out); !slices.Equal(got, want) {
			t.Fatalf("editing %s: film list = %q, want %q", title, got, want)
		}
		for i, a := range out.OfType(English, "film") {
			if a != out.Articles(English)[i] {
				t.Errorf("editing %s: film list slot %d holds a stale %s", title, i, a.Title)
			}
		}
		c = out
	}
}
