package wiki

import "testing"

func film(lang Language, title string, attrs ...AttributeValue) *Article {
	return &Article{
		Language: lang,
		Title:    title,
		Type:     "film",
		Infobox:  &Infobox{Template: "Infobox film", Attrs: attrs},
	}
}

func TestCorpusAddAndLookup(t *testing.T) {
	c := NewCorpus()
	a := film(English, "The Last Emperor", AttributeValue{Name: "directed by", Text: "Bernardo Bertolucci"})
	if err := c.Add(a); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := c.Add(film(English, "The Last Emperor")); err == nil {
		t.Fatal("expected duplicate error")
	}
	got, ok := c.Get(English, "The Last Emperor")
	if !ok || got != a {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if c.Len() != 1 || c.LenLang(English) != 1 {
		t.Errorf("Len = %d, LenLang = %d", c.Len(), c.LenLang(English))
	}
	if types := c.Types(English); len(types) != 1 || types[0] != "film" {
		t.Errorf("Types = %v", types)
	}
	if got := c.OfType(English, "film"); len(got) != 1 {
		t.Errorf("OfType = %v", got)
	}
}

func TestCorpusAddValidates(t *testing.T) {
	c := NewCorpus()
	if err := c.Add(&Article{Language: "EN!", Title: "x"}); err == nil {
		t.Error("expected invalid-language error")
	}
	if err := c.Add(&Article{Language: English, Title: "  "}); err == nil {
		t.Error("expected empty-title error")
	}
	bad := film(English, "Dup", AttributeValue{Name: "a"}, AttributeValue{Name: "a"})
	if err := c.Add(bad); err == nil {
		t.Error("expected duplicate-attribute error")
	}
	self := film(English, "Self")
	self.SetCrossLink(English, "Self")
	if err := c.Add(self); err == nil {
		t.Error("expected self-cross-link error")
	}
}

func TestCorpusPairsBothDirections(t *testing.T) {
	c := NewCorpus()
	en1 := film(English, "A", AttributeValue{Name: "x"})
	pt1 := film(Portuguese, "A-pt", AttributeValue{Name: "y"})
	en1.SetCrossLink(Portuguese, "A-pt") // link recorded on the EN side only
	c.MustAdd(en1)
	c.MustAdd(pt1)

	en2 := film(English, "B", AttributeValue{Name: "x"})
	pt2 := film(Portuguese, "B-pt", AttributeValue{Name: "y"})
	pt2.SetCrossLink(English, "B") // link recorded on the PT side only
	c.MustAdd(en2)
	c.MustAdd(pt2)

	// Article without infobox must not pair.
	en3 := &Article{Language: English, Title: "C", Type: "film"}
	pt3 := film(Portuguese, "C-pt")
	en3.SetCrossLink(Portuguese, "C-pt")
	c.MustAdd(en3)
	c.MustAdd(pt3)

	pairs := c.Pairs(PtEn)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
	for _, p := range pairs {
		if p.A.Language != Portuguese || p.B.Language != English {
			t.Errorf("pair orientation wrong: %s / %s", p.A.Key(), p.B.Key())
		}
		if x, ok := c.CrossTitle(p.A.Language, p.A.Title, p.B.Language); !ok || x != p.B.Title {
			t.Errorf("CrossTitle(%s) = %q, %v, want %q", p.A.Key(), x, ok, p.B.Title)
		}
		if x, ok := c.CrossTitle(p.B.Language, p.B.Title, p.A.Language); !ok || x != p.A.Title {
			t.Errorf("CrossTitle(%s) = %q, %v, want %q", p.B.Key(), x, ok, p.A.Title)
		}
	}
}

func TestCrossLinkedNegativeCases(t *testing.T) {
	c := NewCorpus()
	a := film(English, "A")
	b := film(Portuguese, "B")
	c.MustAdd(a)
	c.MustAdd(b)
	if x, ok := c.CrossTitle(English, a.Title, Portuguese); ok {
		t.Errorf("unlinked article crosses to %q", x)
	}
	if x, ok := c.CrossTitle(English, a.Title, English); ok {
		t.Errorf("article crosses into its own language as %q", x)
	}
	if x, ok := c.CrossTitle(English, "Missing", Portuguese); ok {
		t.Errorf("missing article crosses to %q", x)
	}
}

func TestTypePairCount(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 3; i++ {
		en := film(English, "F"+string(rune('0'+i)), AttributeValue{Name: "x"})
		pt := &Article{Language: Portuguese, Title: "Fp" + string(rune('0'+i)), Type: "filme",
			Infobox: &Infobox{Template: "Infobox filme", Attrs: []AttributeValue{{Name: "y"}}}}
		en.SetCrossLink(Portuguese, pt.Title)
		c.MustAdd(en)
		c.MustAdd(pt)
	}
	counts := c.TypePairCount(LanguagePair{A: English, B: Portuguese})
	if counts[[2]string{"film", "filme"}] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

func TestCorpusStats(t *testing.T) {
	c := NewCorpus()
	en := film(English, "A", AttributeValue{Name: "x"})
	pt := film(Portuguese, "A-pt", AttributeValue{Name: "y"})
	en.SetCrossLink(Portuguese, "A-pt")
	c.MustAdd(en)
	c.MustAdd(pt)
	c.MustAdd(&Article{Language: English, Title: "NoBox"})
	s := c.Stats()
	if s.Articles[English] != 2 || s.Infoboxes[English] != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.CrossPairs["en-pt"] != 1 {
		t.Errorf("cross pairs = %v", s.CrossPairs)
	}
}

func TestInfoboxSetAndClone(t *testing.T) {
	ib := &Infobox{Template: "Infobox film"}
	ib.Set("starring", "John Lone", Link{Target: "John Lone", Anchor: "John Lone"})
	ib.Set("starring", "Joan Chen") // overwrite
	if av, _ := ib.Get("starring"); av.Text != "Joan Chen" || len(av.Links) != 0 {
		t.Errorf("Set overwrite failed: %+v", av)
	}
	ib.Set("language", "English")
	cp := ib.Clone()
	cp.Set("language", "Portuguese")
	if av, _ := ib.Get("language"); av.Text != "English" {
		t.Error("Clone is not a deep copy")
	}
}
