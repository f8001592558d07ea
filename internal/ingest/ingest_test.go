package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dump"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// smallEditions is a reduced multi-edition corpus configuration that
// keeps the round-trip tests fast while still covering hyphenated
// codes, the apex-domain English edition and transitive-only pairs.
func smallEditions() synth.EditionsConfig {
	cfg := synth.DefaultEditions()
	cfg.Languages = []wiki.Language{"en", "de", "pt", "vi", "zh-min-nan", "be-tarask"}
	cfg.EntitiesPerType = 30
	return cfg
}

// ttlSources renders every edition of the corpus as in-memory DBpedia
// property and link dumps.
func ttlSources(t *testing.T, c *wiki.Corpus) []Source {
	t.Helper()
	var out []Source
	for _, l := range c.Languages() {
		var props, links bytes.Buffer
		if err := WriteProperties(&props, c, l); err != nil {
			t.Fatalf("WriteProperties(%s): %v", l, err)
		}
		if err := WriteLinks(&links, c, l); err != nil {
			t.Fatalf("WriteLinks(%s): %v", l, err)
		}
		out = append(out,
			Source{Lang: l, Format: FormatTTL, Reader: bytes.NewReader(props.Bytes())},
			Source{Lang: l, Format: FormatTTL, Reader: bytes.NewReader(links.Bytes())},
		)
	}
	return out
}

func TestTTLRoundTrip(t *testing.T) {
	c, _, err := synth.Editions(smallEditions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ttlSources(t, c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Corpus.Fingerprint(), c.Fingerprint(); got != want {
		diffCorpora(t, c, res.Corpus)
		t.Fatalf("re-ingested corpus fingerprint %x != original %x", got, want)
	}
	tot := res.Totals()
	if tot.AttrTriples == 0 || tot.CrossLinks == 0 || tot.TemplateTriples == 0 {
		t.Fatalf("implausible totals: %+v", tot)
	}
	if n := tot.SkippedTotal(); n != 0 {
		t.Fatalf("clean generated dumps produced %d skips: %v", n, tot.Skipped)
	}
	if tot.TypedByTemplate == 0 || tot.TypedByOntology != 0 || tot.TypedByProfile != 0 {
		t.Fatalf("typing counters off for fully-templated corpus: %+v", tot)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	c, _, err := synth.Editions(smallEditions())
	if err != nil {
		t.Fatal(err)
	}
	var sources []Source
	for _, l := range c.Languages() {
		var buf bytes.Buffer
		if err := dump.WriteCorpus(&buf, c, l); err != nil {
			t.Fatalf("WriteCorpus(%s): %v", l, err)
		}
		sources = append(sources, Source{Lang: l, Format: FormatXML, Reader: bytes.NewReader(buf.Bytes())})
	}
	res, err := Run(context.Background(), sources, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Corpus.Fingerprint(), c.Fingerprint(); got != want {
		diffCorpora(t, c, res.Corpus)
		t.Fatalf("XML round trip fingerprint %x != original %x", got, want)
	}
	if tot := res.Totals(); tot.Pages == 0 || tot.Pages != tot.Entities {
		t.Fatalf("pages %d vs entities %d", tot.Pages, tot.Entities)
	}
}

// TestGeneratedCorpusSurvivesDumpRoundTrip is the XML half of
// ingest(write(c)) == c: the paper corpus, generated at three seeds and
// written as one <lang>.xml file per edition, ingests back through Dir
// to the generated corpus's fingerprint with nothing skipped.
func TestGeneratedCorpusSurvivesDumpRoundTrip(t *testing.T) {
	base := synth.SmallConfig()
	for _, seed := range []int64{base.Seed, base.Seed + 1, 7919} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := base
			cfg.Seed = seed
			c, _, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, l := range c.Languages() {
				f, err := os.Create(filepath.Join(dir, string(l)+".xml"))
				if err != nil {
					t.Fatal(err)
				}
				if err := dump.WriteCorpus(f, c, l); err != nil {
					t.Fatalf("WriteCorpus(%s): %v", l, err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			res, err := Dir(context.Background(), dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Corpus.Fingerprint(), c.Fingerprint(); got != want {
				diffCorpora(t, c, res.Corpus)
				t.Fatalf("XML round trip fingerprint %x != generated %x", got, want)
			}
			if tot := res.Totals(); tot.SkippedTotal() != 0 {
				t.Fatalf("round trip skipped %d units: %v", tot.SkippedTotal(), tot.Skipped)
			}
		})
	}
}

// TestXMLSkipReasons: pages outside the article namespace, redirects and
// pages whose wikitext does not parse become no article, each counted
// under its own skip reason; everything else, a page without revisions
// included, becomes an article.
func TestXMLSkipReasons(t *testing.T) {
	page := func(title string, ns int, body string) string {
		return fmt.Sprintf("<page><title>%s</title><ns>%d</ns>%s</page>\n", title, ns, body)
	}
	text := func(s string) string { return "<revision><text>" + s + "</text></revision>" }
	for _, c := range []struct {
		name     string
		pages    string
		skipped  map[string]int
		articles []string
	}{
		{"namespace", page("Talk:United Kingdom", 1, text("chatter")) +
			page("Template:Infobox country", 10, text("{{doc}}")) +
			page("United Kingdom", 0, text("An article.")),
			map[string]int{SkipNamespace: 2}, []string{"United Kingdom"}},
		{"redirect", page("UK", 0, `<redirect title="United Kingdom"/>`+text("#REDIRECT [[United Kingdom]]")) +
			page("United Kingdom", 0, text("An article.")),
			map[string]int{SkipRedirect: 1}, []string{"United Kingdom"}},
		{"page error", page("Bad", 0, text("{{Infobox film\n| name = unclosed")) +
			page("Empty", 0, ""),
			map[string]int{SkipPageError: 1}, []string{"Empty"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc := `<mediawiki xml:lang="en"><siteinfo><lang>en</lang></siteinfo>` + "\n" + c.pages + "</mediawiki>"
			res, err := Run(context.Background(),
				[]Source{{Lang: "en", Format: FormatXML, Reader: strings.NewReader(doc)}}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := res.PerLang["en"]
			if fmt.Sprint(s.Skipped) != fmt.Sprint(c.skipped) {
				t.Errorf("skipped = %v, want %v", s.Skipped, c.skipped)
			}
			var got []string
			for _, a := range res.Corpus.Articles("en") {
				got = append(got, a.Title)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.articles) {
				t.Errorf("articles = %q, want %q", got, c.articles)
			}
		})
	}
}

// diffCorpora reports the first divergence between two corpora, to make
// fingerprint mismatches debuggable.
func diffCorpora(t *testing.T, want, got *wiki.Corpus) {
	t.Helper()
	for _, l := range want.Languages() {
		for _, wa := range want.Articles(l) {
			ga, ok := got.Get(l, wa.Title)
			if !ok {
				t.Errorf("missing article %s:%s", l, wa.Title)
				return
			}
			if wa.Type != ga.Type {
				t.Errorf("%s:%s type %q != %q", l, wa.Title, ga.Type, wa.Type)
				return
			}
			if (wa.Infobox == nil) != (ga.Infobox == nil) {
				t.Errorf("%s:%s infobox presence differs", l, wa.Title)
				return
			}
			if wa.Infobox != nil && fmt.Sprintf("%+v", wa.Infobox) != fmt.Sprintf("%+v", ga.Infobox) {
				t.Errorf("%s:%s infobox\n want %+v\n got  %+v", l, wa.Title, wa.Infobox, ga.Infobox)
				return
			}
			if fmt.Sprintf("%v", wa.SortedCrossLinks()) != fmt.Sprintf("%v", ga.SortedCrossLinks()) {
				t.Errorf("%s:%s cross-links differ", l, wa.Title)
				return
			}
		}
		if want.LenLang(l) != got.LenLang(l) {
			t.Errorf("%s: %d articles != %d", l, got.LenLang(l), want.LenLang(l))
			return
		}
	}
}

func TestProfileInferenceTypesBareInfoboxes(t *testing.T) {
	cfg := smallEditions()
	cfg.TemplatePct = 60
	c, truth, err := synth.Editions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ttlSources(t, c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.TypedByProfile == 0 {
		t.Fatal("no articles typed by property profile")
	}
	// Every type assignment — template-derived or inferred — must agree
	// with the generator's ground truth for the article's attributes.
	for _, l := range res.Corpus.Languages() {
		for _, a := range res.Corpus.Articles(l) {
			if a.Infobox == nil || a.Type == "" {
				continue
			}
			canon := truth.AttrCanon[l][a.Type]
			if canon == nil {
				t.Fatalf("%s:%s typed %q, not a type of %s", l, a.Title, a.Type, l)
			}
			for _, av := range a.Infobox.Attrs {
				if _, ok := canon[av.Name]; !ok {
					t.Fatalf("%s:%s attribute %q not in truth schema of %q", l, a.Title, av.Name, a.Type)
				}
			}
		}
	}
	// The pass can be disabled.
	res2, err := Run(context.Background(), ttlSources(t, c), Options{NoTypeInference: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := res2.Totals().TypedByProfile; n != 0 {
		t.Fatalf("NoTypeInference still typed %d articles", n)
	}
}

func TestDryRunCountsWithoutBuilding(t *testing.T) {
	c, _, err := synth.Editions(smallEditions())
	if err != nil {
		t.Fatal(err)
	}
	wet, err := Run(context.Background(), ttlSources(t, c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dry, err := Run(context.Background(), ttlSources(t, c), Options{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.Corpus != nil {
		t.Fatal("dry run built a corpus")
	}
	wt, dt := wet.Totals(), dry.Totals()
	if dt.Triples != wt.Triples || dt.AttrTriples != wt.AttrTriples || dt.CrossLinks != wt.CrossLinks {
		t.Fatalf("dry-run counts diverge: dry %+v wet %+v", dt, wt)
	}
	if dt.Entities != 0 || dt.Infoboxes != 0 {
		t.Fatalf("dry run reported assembled entities: %+v", dt)
	}
}

func TestSkipAccounting(t *testing.T) {
	var doc strings.Builder
	sub := "<http://dbpedia.org/resource/Alpha>"
	doc.WriteString("not a triple at all\n")
	doc.WriteString("<http://de.dbpedia.org/resource/Beta> <http://de.dbpedia.org/property/name> \"x\" .\n")
	doc.WriteString("<http://dbpedia.org/resource/Category:Things> <http://dbpedia.org/property/name> \"x\" .\n")
	doc.WriteString(sub + " <http://dbpedia.org/ontology/abstract> \"long text\"@en .\n")
	doc.WriteString(sub + " <http://www.w3.org/2002/07/owl#sameAs> <http://fr.dbpedia.org/resource/Alpha> .\n")
	doc.WriteString(sub + " <http://www.w3.org/2002/07/owl#sameAs> <http://dbpedia.org/resource/Alpha_2> .\n")
	doc.WriteString(sub + " <http://dbpedia.org/property/wikiPageUsesTemplate> \"not a resource\" .\n")
	doc.WriteString(sub + " <http://www.w3.org/2002/07/owl#sameAs> <http://pt.dbpedia.org/resource/Alfa> .\n")
	for i := 0; i < maxAtomsPerAttr+3; i++ {
		fmt.Fprintf(&doc, "%s <http://dbpedia.org/property/crowded> \"v%c\" .\n", sub, 'a'+i%26)
	}
	doc.WriteString(sub + " <http://dbpedia.org/property/name> \"Alpha\" .\n")

	res, err := Run(context.Background(),
		[]Source{{Lang: "en", Format: FormatTTL, Reader: strings.NewReader(doc.String())}},
		Options{Languages: []wiki.Language{"en", "pt"}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.PerLang["en"]
	want := map[string]int{
		SkipMalformedTriple:  1,
		SkipForeignSubject:   1,
		SkipNonArticle:       1,
		SkipIgnoredPredicate: 1,
		SkipForeignLink:      1,
		SkipSelfLink:         1,
		SkipBadObject:        1,
		SkipValueOverflow:    3,
	}
	for reason, n := range want {
		if s.Skipped[reason] != n {
			t.Errorf("skip[%s] = %d, want %d (all: %v)", reason, s.Skipped[reason], n, s.Skipped)
		}
	}
	if got := s.SkippedTotal(); got != 10 {
		t.Errorf("SkippedTotal = %d, want 10", got)
	}
	a, ok := res.Corpus.Get("en", "Alpha")
	if !ok {
		t.Fatal("Alpha not ingested")
	}
	if target, _ := a.CrossLink("pt"); target != "Alfa" {
		t.Fatalf("pt cross-link = %q, want Alfa", target)
	}
	if av, _ := a.Infobox.Get("crowded"); len(strings.Split(av.Text, ", ")) != maxAtomsPerAttr {
		t.Fatalf("crowded kept %d atoms, want %d", len(strings.Split(av.Text, ", ")), maxAtomsPerAttr)
	}
}

func TestClassifyFile(t *testing.T) {
	cases := []struct {
		name   string
		lang   wiki.Language
		format Format
		ok     bool
	}{
		{"en-infobox-properties.ttl", "en", FormatTTL, true},
		{"en-interlanguage-links.ttl.gz", "en", FormatTTL, true},
		{"pt-infobox-properties.ttl.bz2", "pt", FormatTTL, true},
		{"zh-min-nan-infobox-properties.ttl", "zh-min-nan", FormatTTL, true},
		{"be-tarask-interlanguage-links.ttl.bz2", "be-tarask", FormatTTL, true},
		{"vi.ttl", "vi", FormatTTL, true},
		{"vi.xml", "vi", FormatXML, true},
		{"nds-nl.xml.gz", "nds-nl", FormatXML, true},
		{"en-infobox-properties-2026.ttl", "en", FormatTTL, true},
		{"README.md", "", 0, false},
		{"EN.ttl", "", 0, false},
		{"-infobox-properties.ttl", "", 0, false},
		{"archive.tar.gz", "", 0, false},
		{"en.ttl.zst", "", 0, false},
	}
	for _, tc := range cases {
		src, ok := classifyFile(tc.name)
		if ok != tc.ok || (ok && (src.Lang != tc.lang || src.Format != tc.format)) {
			t.Errorf("classifyFile(%q) = %+v, %v; want lang=%q format=%v ok=%v",
				tc.name, src, ok, tc.lang, tc.format, tc.ok)
		}
	}
}

func TestDirMixedFormats(t *testing.T) {
	cfg := smallEditions()
	cfg.Languages = []wiki.Language{"en", "pt", "vi"}
	cfg.EntitiesPerType = 15
	c, _, err := synth.Editions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// English arrives as gzipped TTL, the others as XML page dumps.
	var props, links bytes.Buffer
	if err := WriteProperties(&props, c, "en"); err != nil {
		t.Fatal(err)
	}
	if err := WriteLinks(&links, c, "en"); err != nil {
		t.Fatal(err)
	}
	writeGz := func(name string, data []byte) {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(data)
		zw.Close()
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeGz("en-infobox-properties.ttl.gz", props.Bytes())
	writeGz("en-interlanguage-links.ttl.gz", links.Bytes())
	for _, l := range []wiki.Language{"pt", "vi"} {
		var buf bytes.Buffer
		if err := dump.WriteCorpus(&buf, c, l); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, string(l)+".xml"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("notes\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Dir(context.Background(), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Corpus.Fingerprint(), c.Fingerprint(); got != want {
		diffCorpora(t, c, res.Corpus)
		t.Fatalf("mixed-format dir fingerprint %x != original %x", got, want)
	}
	if res.Bytes == 0 {
		t.Fatal("no bytes accounted")
	}
	if f := res.PerLang["en"].Files; f != 2 {
		t.Fatalf("en files = %d, want 2", f)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	c, _, err := synth.Editions(smallEditions())
	if err != nil {
		t.Fatal(err)
	}
	var prints []uint64
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(context.Background(), ttlSources(t, c), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, res.Corpus.Fingerprint())
	}
	if prints[0] != prints[1] || prints[1] != prints[2] {
		t.Fatalf("fingerprints vary with worker count: %x", prints)
	}
}

func TestRunProgressAndLanguageFilter(t *testing.T) {
	c, _, err := synth.Editions(smallEditions())
	if err != nil {
		t.Fatal(err)
	}
	var events atomic.Int64
	res, err := Run(context.Background(), ttlSources(t, c), Options{
		Languages: []wiki.Language{"en", "de"},
		Progress:  func(ev Progress) { events.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Languages(); len(got) != 2 || got[0] != "de" || got[1] != "en" {
		t.Fatalf("languages = %v, want [de en]", got)
	}
	if events.Load() != 4 { // 2 languages × (properties + links)
		t.Fatalf("progress events = %d, want 4", events.Load())
	}
	// Links into excluded editions are dropped and tallied.
	if res.PerLang["en"].Skipped[SkipForeignLink] == 0 {
		t.Fatal("expected foreign-link skips for excluded editions")
	}
	for _, a := range res.Corpus.Articles("en") {
		for lang := range a.CrossLinks {
			if lang != "de" {
				t.Fatalf("article %s kept cross-link into excluded %s", a.Title, lang)
			}
		}
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, []Source{{Lang: "en", Format: FormatTTL, Reader: strings.NewReader("")}}, Options{})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

// repeatReader yields chunk n times without materializing the whole
// stream — the padding source for the bounded-memory test.
type repeatReader struct {
	chunk []byte
	n     int
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	k := copy(p, r.chunk[r.off:])
	r.off += k
	if r.off == len(r.chunk) {
		r.off = 0
		r.n--
	}
	return k, nil
}

// TestStreamingBoundedMemory asserts the core streaming property: peak
// heap while ingesting is bounded by the assembled corpus, not the dump
// size. The same corpus is ingested from a dump padded to ~10× the
// bytes (comments plus ignorable triples); the padded run's heap peak
// must not grow in proportion to the extra input.
func TestStreamingBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile test")
	}
	cfg := smallEditions()
	cfg.Languages = []wiki.Language{"en", "pt"}
	c, _, err := synth.Editions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var props, links bytes.Buffer
	if err := WriteProperties(&props, c, "en"); err != nil {
		t.Fatal(err)
	}
	if err := WriteLinks(&links, c, "en"); err != nil {
		t.Fatal(err)
	}
	base := int64(props.Len() + links.Len())

	pad := []byte("# padding comment line to stretch the dump without changing the corpus\n" +
		"<http://dbpedia.org/resource/Padding> <http://dbpedia.org/ontology/abstract> \"ignored filler value\"@en .\n")
	padRepeat := int(base*9/int64(len(pad))) + 1

	run := func(padded bool) (uint64, int64, uint64) {
		sources := []Source{
			{Lang: "en", Format: FormatTTL, Reader: bytes.NewReader(props.Bytes())},
			{Lang: "en", Format: FormatTTL, Reader: bytes.NewReader(links.Bytes())},
		}
		if padded {
			sources = append(sources, Source{Lang: "en", Format: FormatTTL,
				Reader: &repeatReader{chunk: pad, n: padRepeat}})
		}
		var res *Result
		var err error
		grew := heapGrowth(func() {
			res, err = Run(context.Background(), sources, Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		return grew, res.Bytes, res.Corpus.Fingerprint()
	}

	peak1, bytes1, fp1 := run(false)
	peak10, bytes10, fp10 := run(true)
	if fp1 != fp10 {
		t.Fatalf("padding changed the corpus: %x != %x", fp10, fp1)
	}
	extra := bytes10 - bytes1
	if extra < 8*bytes1 {
		t.Fatalf("padding too small: %d extra over %d base", extra, bytes1)
	}
	// Allow generous jitter, but growth must stay far below the extra
	// input: a quarter of the padding bytes plus a fixed allowance.
	limit := uint64(extra/4) + 8<<20
	if peak10 > peak1+limit {
		t.Fatalf("peak heap grew %d bytes on %d padding bytes (base peak %d) — ingestion is not streaming",
			peak10-peak1, extra, peak1)
	}
	t.Logf("base: %d dump bytes, peak +%d heap; padded: %d dump bytes, peak +%d heap",
		bytes1, peak1, bytes10, peak10)
}

// heapGrowth runs fn while a goroutine samples the heap every 200µs and
// returns the largest growth it saw over the post-GC heap fn started
// from. The sampler is stopped and waited for before its peak is read.
func heapGrowth(fn func()) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			select {
			case <-stop:
				return
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	fn()
	close(stop)
	<-done
	if peak < base.HeapAlloc {
		return 0
	}
	return peak - base.HeapAlloc
}
