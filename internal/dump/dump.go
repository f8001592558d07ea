// Package dump reads and writes MediaWiki-style XML dumps. Reader
// streams pages out of a dump, so arbitrarily large dumps never need to
// fit in memory; it is the XML decoder of internal/ingest, which turns
// <lang>.xml files into a corpus and counts what it skips. Writer and
// WriteCorpus render a corpus edition back into a dump.
package dump

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/wiki"
)

// Page is one <page> element of a dump: its title, namespace, numeric id
// and the wikitext of its latest revision. Redirect carries the target
// title of a <redirect/> page (empty for regular articles); a page with
// zero revisions has empty Text.
type Page struct {
	Title    string
	NS       int
	ID       int
	Text     string
	Redirect string
}

// Reader streams pages out of a MediaWiki XML dump.
type Reader struct {
	dec     *xml.Decoder
	exhaust bool
	pageSeq int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{dec: xml.NewDecoder(r)}
}

// xmlPage mirrors the subset of the <page> element we consume.
type xmlPage struct {
	Title    string `xml:"title"`
	NS       int    `xml:"ns"`
	ID       int    `xml:"id"`
	Redirect struct {
		Title string `xml:"title,attr"`
	} `xml:"redirect"`
	Revisions []struct {
		Text string `xml:"text"`
	} `xml:"revision"`
}

// Next returns the next page in the dump, or io.EOF when exhausted.
func (r *Reader) Next() (Page, error) {
	if r.exhaust {
		return Page{}, io.EOF
	}
	for {
		tok, err := r.dec.Token()
		if err == io.EOF {
			r.exhaust = true
			return Page{}, io.EOF
		}
		if err != nil {
			return Page{}, fmt.Errorf("dump: reading token: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok || start.Name.Local != "page" {
			continue
		}
		var xp xmlPage
		if err := r.dec.DecodeElement(&xp, &start); err != nil {
			return Page{}, fmt.Errorf("dump: page: %w", err)
		}
		r.pageSeq++
		p := Page{Title: xp.Title, NS: xp.NS, ID: xp.ID, Redirect: xp.Redirect.Title}
		if p.ID == 0 {
			p.ID = r.pageSeq
		}
		if len(xp.Revisions) > 0 {
			p.Text = xp.Revisions[len(xp.Revisions)-1].Text
		}
		return p, nil
	}
}

// Writer streams pages into a MediaWiki XML dump.
type Writer struct {
	w      io.Writer
	lang   wiki.Language
	opened bool
	closed bool
	nextID int
	err    error
}

// NewWriter creates a dump writer for the given language edition.
func NewWriter(w io.Writer, lang wiki.Language) *Writer {
	return &Writer{w: w, lang: lang, nextID: 1}
}

func (w *Writer) write(s string) {
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}

func (w *Writer) open() {
	if w.opened {
		return
	}
	w.opened = true
	w.write(xml.Header)
	w.write(fmt.Sprintf("<mediawiki xml:lang=%q>\n", w.lang))
	w.write("  <siteinfo>\n")
	w.write(fmt.Sprintf("    <sitename>Wikipedia</sitename>\n    <dbname>%swiki</dbname>\n    <lang>%s</lang>\n", w.lang, w.lang))
	w.write("  </siteinfo>\n")
}

// WritePage appends a page in namespace 0 with the given wikitext.
func (w *Writer) WritePage(title, text string) error {
	if w.closed {
		return fmt.Errorf("dump: write after Close")
	}
	w.open()
	id := w.nextID
	w.nextID++
	w.write("  <page>\n")
	w.write("    <title>" + escape(title) + "</title>\n")
	w.write("    <ns>0</ns>\n")
	w.write(fmt.Sprintf("    <id>%d</id>\n", id))
	w.write("    <revision>\n")
	w.write(fmt.Sprintf("      <id>%d</id>\n", id))
	w.write("      <text>" + escape(text) + "</text>\n")
	w.write("    </revision>\n")
	w.write("  </page>\n")
	return w.err
}

// Close terminates the dump document. It is an error to write afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.open()
	w.closed = true
	w.write("</mediawiki>\n")
	return w.err
}

// escape XML-escapes text content.
func escape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

// WriteCorpus renders every article of one language edition into a dump.
func WriteCorpus(w io.Writer, c *wiki.Corpus, lang wiki.Language) error {
	dw := NewWriter(w, lang)
	for _, a := range c.Articles(lang) {
		if err := dw.WritePage(a.Title, wiki.RenderPage(a)); err != nil {
			return err
		}
	}
	return dw.Close()
}
