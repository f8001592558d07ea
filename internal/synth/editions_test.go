package synth

import (
	"testing"

	"repro/internal/wiki"
)

func TestEditionsDeterministic(t *testing.T) {
	cfg := DefaultEditions()
	cfg.EntitiesPerType = 20
	a, _, err := Editions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Editions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same config produced different corpora")
	}
	cfg.Seed++
	c, _, err := Editions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seed produced identical corpus")
	}
}

func TestEditionsShape(t *testing.T) {
	cfg := DefaultEditions()
	cfg.EntitiesPerType = 20
	c, truth, err := Editions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	langs := c.Languages()
	if len(langs) != len(cfg.Languages) {
		t.Fatalf("languages = %v", langs)
	}
	stats := c.Stats()
	// The hub edition carries every entity plus the reference stubs.
	if want := cfg.Types * cfg.EntitiesPerType; stats.Infoboxes["en"] != want {
		t.Fatalf("en infoboxes = %d, want %d", stats.Infoboxes["en"], want)
	}
	// With NonHubLinkPct 0 only hub pairs are cross-linked: links exist
	// for exactly the len(langs)-1 pairs that include the hub.
	linked := 0
	// Stats keys pairs in sorted orientation (hubless OrientPair).
	for _, pair := range wiki.AllPairs(langs, "") {
		if stats.CrossPairs[pair.String()] > 0 {
			linked++
			if pair.A != cfg.Hub && pair.B != cfg.Hub {
				t.Fatalf("non-hub pair %s is cross-linked", pair)
			}
		}
	}
	if linked != len(langs)-1 {
		t.Fatalf("%d linked pairs, want %d", linked, len(langs)-1)
	}
	// Every typed article's type and attribute names resolve in the
	// ground truth, and anchors share canonical ids across editions.
	for _, l := range langs {
		for _, a := range c.Articles(l) {
			if a.Infobox == nil {
				continue
			}
			if a.Type == "" {
				t.Fatalf("%s:%s untyped with TemplatePct 100", l, a.Title)
			}
			if _, ok := truth.TypeName[l][a.Type]; !ok {
				t.Fatalf("%s:%s type %q missing from truth", l, a.Title, a.Type)
			}
			for _, av := range a.Infobox.Attrs {
				if _, ok := truth.AttrCanon[l][a.Type][av.Name]; !ok {
					t.Fatalf("%s:%s attr %q missing from truth", l, a.Title, av.Name)
				}
			}
		}
	}
}

func TestEditionsValidation(t *testing.T) {
	bad := []EditionsConfig{
		{Languages: []wiki.Language{"en"}, Hub: "en", Types: 1, EntitiesPerType: 1, AttrsPerType: 1, PerBox: 1},
		{Languages: []wiki.Language{"en", "pt"}, Hub: "de", Types: 1, EntitiesPerType: 1, AttrsPerType: 1, PerBox: 1},
		{Languages: []wiki.Language{"en", "EN"}, Hub: "en", Types: 1, EntitiesPerType: 1, AttrsPerType: 1, PerBox: 1},
		{Languages: []wiki.Language{"en", "pt", "en"}, Hub: "en", Types: 1, EntitiesPerType: 1, AttrsPerType: 1, PerBox: 1},
		{Languages: []wiki.Language{"en", "pt"}, Hub: "en", Types: 0, EntitiesPerType: 1, AttrsPerType: 1, PerBox: 1},
	}
	for i, cfg := range bad {
		if _, _, err := Editions(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
