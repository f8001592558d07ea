package dump

import (
	"strings"
	"testing"

	"repro/internal/wiki"
)

func TestReaderTakesLatestRevision(t *testing.T) {
	doc := `<mediawiki xml:lang="en"><page><title>X</title><ns>0</ns><id>1</id>
<revision><id>1</id><text>old text</text></revision>
<revision><id>2</id><text>new text</text></revision>
</page></mediawiki>`
	pages, err := readAll(NewReader(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(pages) != 1 || pages[0].Text != "new text" {
		t.Fatalf("pages = %+v", pages)
	}
}

func TestReaderPageWithoutRevision(t *testing.T) {
	doc := `<mediawiki xml:lang="en"><page><title>X</title><ns>0</ns><id>1</id></page></mediawiki>`
	pages, err := readAll(NewReader(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(pages) != 1 || pages[0].Text != "" {
		t.Fatalf("pages = %+v", pages)
	}
}

func TestReaderAssignsSequentialIDsWhenMissing(t *testing.T) {
	doc := `<mediawiki xml:lang="en">
<page><title>A</title><ns>0</ns><revision><text>a</text></revision></page>
<page><title>B</title><ns>0</ns><revision><text>b</text></revision></page>
</mediawiki>`
	pages, err := readAll(NewReader(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if pages[0].ID != 1 || pages[1].ID != 2 {
		t.Fatalf("ids = %d, %d", pages[0].ID, pages[1].ID)
	}
}

func TestReaderIgnoresUnknownElements(t *testing.T) {
	doc := `<mediawiki xml:lang="en"><unknown><deep>stuff</deep></unknown>
<page><title>X</title><ns>0</ns><id>1</id><revision><id>1</id><text>t</text></revision></page>
</mediawiki>`
	pages, err := readAll(NewReader(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(pages) != 1 {
		t.Fatalf("pages = %d", len(pages))
	}
}

func TestWriterEmptyDumpIsValid(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b, wiki.Portuguese)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	pages, err := readAll(NewReader(strings.NewReader(b.String())))
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(pages) != 0 {
		t.Fatalf("pages = %d", len(pages))
	}
}

func TestWriterCloseIdempotent(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b, wiki.English)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "</mediawiki>"); n != 1 {
		t.Fatalf("document closed %d times", n)
	}
}

func TestReaderRedirectPage(t *testing.T) {
	doc := `<mediawiki xml:lang="en">
<page><title>UK</title><ns>0</ns><id>1</id><redirect title="United Kingdom"/>
<revision><id>1</id><text>#REDIRECT [[United Kingdom]]</text></revision></page>
<page><title>United Kingdom</title><ns>0</ns><id>2</id><revision><id>2</id><text>plain</text></revision></page>
</mediawiki>`
	pages, err := readAll(NewReader(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(pages) != 2 {
		t.Fatalf("pages = %d, want 2", len(pages))
	}
	if pages[0].Redirect != "United Kingdom" {
		t.Fatalf("redirect = %q, want United Kingdom", pages[0].Redirect)
	}
	if pages[1].Redirect != "" {
		t.Fatalf("regular page carries redirect %q", pages[1].Redirect)
	}
}
