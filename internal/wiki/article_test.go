package wiki

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLinkString(t *testing.T) {
	cases := []struct {
		link Link
		want string
	}{
		{Link{Target: "X"}, "[[X]]"},
		{Link{Target: "X", Anchor: "X"}, "[[X]]"},
		{Link{Target: "X", Anchor: "the x"}, "[[X|the x]]"},
	}
	for _, c := range cases {
		if got := c.link.String(); got != c.want {
			t.Errorf("Link%v.String() = %q, want %q", c.link, got, c.want)
		}
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Language: Portuguese, Title: "O Rio"}
	if got := k.String(); got != "pt:O Rio" {
		t.Errorf("Key.String() = %q", got)
	}
}

func TestSortedCrossLinksOrder(t *testing.T) {
	a := &Article{Language: English, Title: "X"}
	a.SetCrossLink(Vietnamese, "Xv")
	a.SetCrossLink(Portuguese, "Xp")
	got := a.SortedCrossLinks()
	if len(got) != 2 || got[0].Language != Portuguese || got[1].Language != Vietnamese {
		t.Errorf("SortedCrossLinks = %v", got)
	}
}

func TestArticleCloneIndependence(t *testing.T) {
	orig := &Article{
		Language:   English,
		Title:      "X",
		Type:       "film",
		Categories: []string{"a"},
		Infobox: &Infobox{Template: "Infobox film", Attrs: []AttributeValue{
			{Name: "starring", Text: "A", Links: []Link{{Target: "A", Anchor: "A"}}},
		}},
		CrossLinks: map[Language]string{Portuguese: "Xp"},
	}
	cp := orig.Clone()
	cp.Categories[0] = "b"
	cp.Infobox.Attrs[0].Links[0].Target = "B"
	cp.CrossLinks[Portuguese] = "other"
	if orig.Categories[0] != "a" {
		t.Error("categories shared")
	}
	if orig.Infobox.Attrs[0].Links[0].Target != "A" {
		t.Error("links shared")
	}
	if orig.CrossLinks[Portuguese] != "Xp" {
		t.Error("cross links shared")
	}
}

func TestLanguagePairHelpers(t *testing.T) {
	if PtEn.String() != "pt-en" {
		t.Errorf("String = %q", PtEn.String())
	}
}

func TestRenderValueWithDanglingAnchor(t *testing.T) {
	// A link whose anchor no longer appears in the text is appended
	// rather than lost, so the round-trip preserves it.
	a := &Article{
		Language: English, Title: "X", Type: "film",
		Infobox: &Infobox{Template: "Infobox film", Attrs: []AttributeValue{
			{Name: "starring", Text: "somebody else", Links: []Link{{Target: "Lost Link", Anchor: "Lost Link"}}},
		}},
	}
	text := RenderPage(a)
	if !strings.Contains(text, "[[Lost Link]]") {
		t.Errorf("dangling link dropped:\n%s", text)
	}
	back, err := ParsePage(English, "X", text)
	if err != nil {
		t.Fatalf("ParsePage: %v", err)
	}
	av, _ := back.Infobox.Get("starring")
	if len(av.Links) != 1 || av.Links[0].Target != "Lost Link" {
		t.Errorf("round-trip links = %v", av.Links)
	}
}

// TestRenderParseRoundTripProperty: any article built from printable
// names/values survives render → parse with its schema intact.
func TestRenderParseRoundTripProperty(t *testing.T) {
	clean := func(s string, max int) string {
		var b strings.Builder
		for _, r := range s {
			if b.Len() >= max {
				break
			}
			// Keep letters, digits and spaces; markup characters would
			// legitimately change parsing.
			if r == ' ' || r == '-' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
				b.WriteRune(r)
			}
		}
		return strings.TrimSpace(b.String())
	}
	prop := func(rawTitle string, rawNames [4]string, rawValues [4]string) bool {
		title := clean(rawTitle, 40)
		if title == "" {
			title = "Article"
		}
		a := &Article{Language: English, Title: title, Type: "film",
			Infobox: &Infobox{Template: "Infobox film"}}
		seen := map[string]bool{}
		for i := range rawNames {
			name := clean(rawNames[i], 24)
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			a.Infobox.Attrs = append(a.Infobox.Attrs, AttributeValue{
				Name: name, Text: clean(rawValues[i], 60),
			})
		}
		text := RenderPage(a)
		back, err := ParsePage(English, title, text)
		if err != nil {
			return false
		}
		if back.Infobox == nil {
			return len(a.Infobox.Attrs) == 0 && back.Infobox == nil || back.Infobox != nil
		}
		for _, av := range a.Infobox.Attrs {
			got, ok := back.Infobox.Get(av.Name)
			if !ok || got.Text != av.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
