package dump

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/wiki"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, wiki.English)
	pages := []struct{ title, text string }{
		{"Alpha", "{{Infobox film\n| name = Alpha\n}}\n[[Category:Films]]"},
		{"Beta & Gamma", "text with <angle> brackets & ampersands"},
		{"Hoàng đế cuối cùng", "unicode title"},
	}
	for _, p := range pages {
		if err := w.WritePage(p.title, p.text); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.WritePage("late", "x"); err == nil {
		t.Error("expected write-after-close error")
	}

	got, err := readAll(NewReader(&buf))
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(got) != len(pages) {
		t.Fatalf("pages = %d, want %d", len(got), len(pages))
	}
	for i, p := range pages {
		if got[i].Title != p.title {
			t.Errorf("page %d title = %q, want %q", i, got[i].Title, p.title)
		}
		if got[i].Text != p.text {
			t.Errorf("page %d text = %q, want %q", i, got[i].Text, p.text)
		}
		if got[i].ID != i+1 {
			t.Errorf("page %d id = %d", i, got[i].ID)
		}
	}
}

func TestReaderEOFIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, wiki.English)
	w.WritePage("One", "x")
	w.Close()
	r := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("Next after end = %v, want EOF", err)
		}
	}
}

func TestReaderMalformedXML(t *testing.T) {
	r := NewReader(strings.NewReader("<mediawiki><page><title>X</title>"))
	_, err := r.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("err = %v, want structural error", err)
	}
}

func TestCorpusDumpRoundTrip(t *testing.T) {
	orig := wiki.NewCorpus()
	en := &wiki.Article{
		Language: wiki.English, Title: "The Last Emperor", Type: "film",
		Infobox: &wiki.Infobox{Template: "Infobox film", Attrs: []wiki.AttributeValue{
			{Name: "directed by", Text: "Bernardo Bertolucci", Links: []wiki.Link{{Target: "Bernardo Bertolucci", Anchor: "Bernardo Bertolucci"}}},
			{Name: "running time", Text: "160 minutes"},
		}},
		Categories: []string{"1987 films"},
		CrossLinks: map[wiki.Language]string{wiki.Portuguese: "O Último Imperador"},
	}
	pt := &wiki.Article{
		Language: wiki.Portuguese, Title: "O Último Imperador", Type: "filme",
		Infobox: &wiki.Infobox{Template: "Infobox filme", Attrs: []wiki.AttributeValue{
			{Name: "direção", Text: "Bernardo Bertolucci"},
			{Name: "duração", Text: "165 min"},
		}},
		CrossLinks: map[wiki.Language]string{wiki.English: "The Last Emperor"},
	}
	orig.MustAdd(en)
	orig.MustAdd(pt)

	loaded := wiki.NewCorpus()
	for _, lang := range []wiki.Language{wiki.English, wiki.Portuguese} {
		var buf bytes.Buffer
		if err := WriteCorpus(&buf, orig, lang); err != nil {
			t.Fatalf("WriteCorpus(%s): %v", lang, err)
		}
		pages, err := readAll(NewReader(&buf))
		if err != nil {
			t.Fatalf("read %s: %v", lang, err)
		}
		for _, p := range pages {
			a, err := wiki.ParsePage(lang, p.Title, p.Text)
			if err != nil {
				t.Fatalf("ParsePage(%s, %q): %v", lang, p.Title, err)
			}
			loaded.MustAdd(a)
		}
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d articles", loaded.Len())
	}
	pairs := loaded.Pairs(wiki.PtEn)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	gotEn, _ := loaded.Get(wiki.English, "The Last Emperor")
	if gotEn.Type != "film" || gotEn.Infobox.Len() != 2 {
		t.Errorf("round-trip en article = %+v", gotEn)
	}
	dir, ok := gotEn.Infobox.Get("directed by")
	if !ok || len(dir.Links) != 1 {
		t.Errorf("round-trip links = %+v", dir)
	}
}

// readAll reads every remaining page of r.
func readAll(r *Reader) ([]Page, error) {
	var pages []Page
	for {
		p, err := r.Next()
		if err == io.EOF {
			return pages, nil
		}
		if err != nil {
			return pages, err
		}
		pages = append(pages, p)
	}
}
