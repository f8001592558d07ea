package service

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/artifact"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// editableArticle finds an article of the given language and type that
// carries an infobox value the tests can edit.
func editableArticle(t *testing.T, c *wiki.Corpus, lang wiki.Language, typ string) *wiki.Article {
	t.Helper()
	for _, a := range c.OfType(lang, typ) {
		if a.Infobox != nil && a.Infobox.Len() > 0 {
			return a
		}
	}
	t.Fatalf("no editable %s article of type %q", lang, typ)
	return nil
}

// TestApplyDeltaValueEditRebuildsOnlyDirtyType is the acceptance gate
// for corpus deltas: after a value-only edit of one article, a warm
// re-match rebuilds only that article's type artifacts. Every untouched
// type node — and the pair node, since values feed neither the
// dictionary nor the alignment — must serve from cache, asserted
// through the engine's per-node build/hit counters.
func TestApplyDeltaValueEditRebuildsOnlyDirtyType(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	types, err := s.Types(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	if len(types) < 2 {
		t.Fatalf("need at least 2 aligned types to tell dirty from clean, have %d", len(types))
	}
	dirty := types[0]

	ed := editableArticle(t, c, wiki.Portuguese, dirty[0]).Clone()
	ed.Infobox.Attrs[0].Text += " (editado)"
	res, err := s.ApplyDelta(ctx, wiki.Delta{Upserts: []*wiki.Article{ed}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}

	if res.Added != 0 || res.Updated != 1 || res.Removed != 0 {
		t.Errorf("counts = %d/%d/%d, want 0/1/0", res.Added, res.Updated, res.Removed)
	}
	if len(res.Languages) != 1 || res.Languages[0] != wiki.Portuguese {
		t.Errorf("Languages = %v, want [pt]", res.Languages)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].Pair != wiki.PtEn {
		t.Fatalf("affected pairs = %+v, want exactly pt-en", res.Pairs)
	}
	pe := res.Pairs[0]
	if pe.Rebuilt {
		t.Error("value-only edit reported the pair as rebuilt")
	}
	if len(pe.DroppedTypes) != 1 || pe.DroppedTypes[0] != dirty {
		t.Errorf("DroppedTypes = %v, want exactly %v", pe.DroppedTypes, dirty)
	}
	if res.DroppedPairs != 0 || res.DroppedTypes != 1 {
		t.Errorf("dropped = %d pairs / %d types, want 0 / 1", res.DroppedPairs, res.DroppedTypes)
	}
	if want := s.Corpus().Fingerprint(); res.Fingerprint != want {
		t.Errorf("Fingerprint = %x, want %x", res.Fingerprint, want)
	}
	if got, _ := s.Corpus().Get(wiki.Portuguese, ed.Title); got.Infobox.Attrs[0].Text != ed.Infobox.Attrs[0].Text {
		t.Error("session corpus does not carry the edit")
	}

	// Warm re-match: byte-identical to a cold session over the edited
	// corpus — the cache kept nothing stale.
	post, err := s.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := New(s.Corpus()).Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	if flattenResult(post) != flattenResult(coldRes) {
		t.Error("post-delta warm match differs from a cold session on the edited corpus")
	}

	// Engine stats: exactly the dirty type rebuilt, everything else hit.
	for _, tp := range types {
		ns := s.eng.NodeStats(artifact.TypeKey(wiki.PtEn, tp[0], tp[1]))
		if tp == dirty {
			if ns.Builds != 2 {
				t.Errorf("dirty type %v: builds = %d, want 2 (cold + post-delta)", tp, ns.Builds)
			}
		} else {
			if ns.Builds != 1 {
				t.Errorf("untouched type %v: builds = %d, want 1 — delta rebuilt a clean node", tp, ns.Builds)
			}
			if ns.Hits == 0 {
				t.Errorf("untouched type %v: no cache hit on the warm re-match", tp)
			}
		}
	}
	pns := s.eng.NodeStats(artifact.PairKey(wiki.PtEn))
	if pns.Builds != 1 {
		t.Errorf("pair node builds = %d, want 1 — value edit must keep the pair artifacts", pns.Builds)
	}
	if pns.Hits == 0 {
		t.Error("pair node: no cache hit on the warm re-match")
	}
}

// TestApplyDeltaCrossLinkChangeReseedsPair: an added article with a
// cross-language link changes the translation dictionary, so the pair
// node must be reseeded (with the diff's fresh build) and the whole type
// subtree dropped — while the other language pair stays untouched.
func TestApplyDeltaCrossLinkChangeReseedsPair(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		if _, err := s.Match(ctx, pair); err != nil {
			t.Fatal(err)
		}
	}
	types, err := s.Types(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	viMissesBefore := s.eng.NodeStats(artifact.PairKey(wiki.VnEn))

	enTitle := c.Articles(wiki.English)[0].Title
	add := &wiki.Article{
		Language:   wiki.Portuguese,
		Title:      "Artigo Novo do Delta",
		Type:       types[0][0],
		Infobox:    &wiki.Infobox{Template: "Infobox " + types[0][0], Attrs: []wiki.AttributeValue{{Name: "nome", Text: "Artigo Novo"}}},
		CrossLinks: map[wiki.Language]string{wiki.English: enTitle},
	}
	res, err := s.ApplyDelta(ctx, wiki.Delta{Upserts: []*wiki.Article{add}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.Added != 1 || res.Updated != 0 || res.Removed != 0 {
		t.Errorf("counts = %d/%d/%d, want 1/0/0", res.Added, res.Updated, res.Removed)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].Pair != wiki.PtEn || !res.Pairs[0].Rebuilt {
		t.Fatalf("pairs = %+v, want pt-en rebuilt", res.Pairs)
	}
	if res.DroppedPairs != 1 {
		t.Errorf("DroppedPairs = %d, want 1", res.DroppedPairs)
	}
	if res.DroppedTypes != len(types) || len(res.Pairs[0].DroppedTypes) != len(types) {
		t.Errorf("DroppedTypes = %d (pair lists %d), want all %d under pt-en",
			res.DroppedTypes, len(res.Pairs[0].DroppedTypes), len(types))
	}

	// The reseeded pair node serves without a rebuild; vi-en untouched.
	post, err := s.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := New(s.Corpus()).Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	if flattenResult(post) != flattenResult(coldRes) {
		t.Error("post-delta match differs from a cold session on the edited corpus")
	}
	pns := s.eng.NodeStats(artifact.PairKey(wiki.PtEn))
	if pns.Builds != 2 {
		t.Errorf("pt-en pair builds = %d, want 2 (cold + delta reseed)", pns.Builds)
	}
	if got := s.eng.NodeStats(artifact.PairKey(wiki.VnEn)); got.Builds != viMissesBefore.Builds {
		t.Errorf("vi-en pair rebuilt by a pt-only delta: builds %d → %d", viMissesBefore.Builds, got.Builds)
	}
	if st := s.CacheStats(); st.PairEntries != 2 {
		t.Errorf("pair entries = %d, want 2 (reseed must not shrink the cache)", st.PairEntries)
	}
}

// TestApplyDeltaRemoveCrossLinkedArticle: removing a cross-linked
// article must at minimum drop its type's artifacts (the pair node is
// additionally reseeded when the removal changed the dictionary or the
// alignment), and the session keeps answering with results equal to a
// cold session on the smaller corpus.
func TestApplyDeltaRemoveCrossLinkedArticle(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	victim := c.Pairs(wiki.PtEn)[0].A
	res, err := s.ApplyDelta(ctx, wiki.Delta{Removes: []wiki.Key{victim.Key()}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.Removed != 1 {
		t.Errorf("Removed = %d, want 1", res.Removed)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].Pair != wiki.PtEn {
		t.Fatalf("pairs = %+v, want exactly pt-en", res.Pairs)
	}
	dirtied := false
	for _, tp := range res.Pairs[0].DroppedTypes {
		if tp[0] == victim.Type {
			dirtied = true
		}
	}
	if !dirtied {
		t.Errorf("victim's type %q not among dropped types %v", victim.Type, res.Pairs[0].DroppedTypes)
	}
	if _, ok := s.Corpus().Get(victim.Language, victim.Title); ok {
		t.Error("removed article still present in the session corpus")
	}
	post, err := s.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := New(s.Corpus()).Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	if flattenResult(post) != flattenResult(coldRes) {
		t.Error("post-removal match differs from a cold session on the edited corpus")
	}
}

// TestApplyDeltaDropsNodesCachedDuringDiff: a pair cached for the first
// time while ApplyDelta's diff phase runs was built from the pre-delta
// corpus and has no diff plan. The commit must still drop it — a node
// slipping through that window would survive the epoch bump and serve
// stale artifacts against the post-delta corpus indefinitely.
func TestApplyDeltaDropsNodesCachedDuringDiff(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	types, err := New(c).Types(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}

	// The delta's diff phase sees an empty cache (no plans); the hook then
	// caches pt-en from the pre-delta corpus inside the commit window.
	var cachedTypes int
	s.deltaTestHook = func() {
		if _, err := s.Match(ctx, wiki.PtEn); err != nil {
			t.Errorf("racing match: %v", err)
		}
		cachedTypes = s.CacheStats().TypeEntries
	}
	ed := editableArticle(t, c, wiki.Portuguese, types[0][0]).Clone()
	ed.Infobox.Attrs[0].Text += " (editado)"
	res, err := s.ApplyDelta(ctx, wiki.Delta{Upserts: []*wiki.Article{ed}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if cachedTypes == 0 {
		t.Fatal("racing match cached no type nodes; the window was not exercised")
	}

	// The racing pair had no plan, so it carries no per-pair effect — but
	// every node it cached must be gone from the post-delta graph.
	if len(res.Pairs) != 0 {
		t.Errorf("res.Pairs = %+v, want empty (pair was not cached at diff time)", res.Pairs)
	}
	if res.DroppedPairs != 1 || res.DroppedTypes != cachedTypes {
		t.Errorf("dropped = %d pairs / %d types, want 1 / %d (the racing fill)",
			res.DroppedPairs, res.DroppedTypes, cachedTypes)
	}
	if st := s.CacheStats(); st.PairEntries != 0 || st.TypeEntries != 0 {
		t.Errorf("post-delta cache holds %d pairs / %d types, want empty", st.PairEntries, st.TypeEntries)
	}

	// A warm re-match rebuilds from the edited corpus, byte-identical to
	// a cold session over it.
	post, err := s.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := New(s.Corpus()).Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	if flattenResult(post) != flattenResult(coldRes) {
		t.Error("post-delta match differs from a cold session on the edited corpus")
	}
	if ns := s.eng.NodeStats(artifact.PairKey(wiki.PtEn)); ns.Builds != 2 {
		t.Errorf("pair builds = %d, want 2 (racing fill + post-delta rebuild)", ns.Builds)
	}
}

// TestServeDeltaBuildFailureIsNotClientError: a diff-phase build failure
// inside ApplyDelta is a server-side problem and must not surface as
// invalid_argument.
func TestServeDeltaBuildFailureIsNotClientError(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	// A pre-cancelled context passes request and corpus validation, so
	// the failure comes from the diff-phase build, not the client's input.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := s.ServeDelta(cancelled, protocol.DeltaRequest{Upserts: []protocol.DeltaUpsert{{
		Lang:     "pt",
		Title:    "Página Nova",
		Wikitext: "{{Infobox filme | nome = Página Nova}}",
	}}})
	if err == nil {
		t.Fatal("cancelled delta succeeded")
	}
	if pe := protocol.FromErr(err); pe.Code != protocol.CodeCanceled {
		t.Errorf("code = %q, want %q (server-side failure blamed on the client)", pe.Code, protocol.CodeCanceled)
	}
}

// TestApplyDeltaColdCache: a delta against a session with an empty
// cache touches no graph nodes and simply swaps the corpus.
func TestApplyDeltaColdCache(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ed := c.Articles(wiki.Portuguese)[0].Clone()
	res, err := s.ApplyDelta(context.Background(), wiki.Delta{Upserts: []*wiki.Article{ed}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || res.DroppedPairs != 0 || res.DroppedTypes != 0 {
		t.Errorf("cold-cache delta reported invalidations: %+v", res)
	}
	if s.Corpus() == c {
		t.Error("corpus not swapped")
	}
}

// TestApplyDeltaErrorsLeaveSessionUntouched: a rejected delta must not
// swap the corpus or touch the cache.
func TestApplyDeltaErrorsLeaveSessionUntouched(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats()

	_, err := s.ApplyDelta(ctx, wiki.Delta{Removes: []wiki.Key{{Language: wiki.Portuguese, Title: "Não Existe"}}})
	if !errors.Is(err, wiki.ErrNoSuchArticle) {
		t.Errorf("remove missing: err = %v, want ErrNoSuchArticle", err)
	}
	if _, err := s.ApplyDelta(ctx, wiki.Delta{}); err == nil {
		t.Error("empty delta accepted")
	}
	if s.Corpus() != c {
		t.Error("failed delta swapped the corpus")
	}
	if after := s.CacheStats(); after != before {
		t.Errorf("failed delta changed cache stats: %+v → %+v", before, after)
	}

	// A delta cancelled during the diff phase leaves everything as it was.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	ed := c.Articles(wiki.Portuguese)[0].Clone()
	if _, err := s.ApplyDelta(cancelled, wiki.Delta{Upserts: []*wiki.Article{ed}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled delta: err = %v, want context.Canceled", err)
	}
	if s.Corpus() != c {
		t.Error("cancelled delta swapped the corpus")
	}
	if after := s.CacheStats(); after != before {
		t.Errorf("cancelled delta changed cache stats: %+v → %+v", before, after)
	}
}

// TestServeDelta covers the typed wire path: success shape, error code
// classification, and the fingerprint/language rendering.
func TestServeDelta(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()

	resp, err := s.ServeDelta(ctx, protocol.DeltaRequest{Upserts: []protocol.DeltaUpsert{{
		Lang:     "pt",
		Title:    "Página Nova",
		Wikitext: "{{Infobox filme | nome = Página Nova}} [[en:New Page]]",
	}}})
	if err != nil {
		t.Fatalf("ServeDelta: %v", err)
	}
	if resp.Added != 1 {
		t.Errorf("Added = %d, want 1", resp.Added)
	}
	if want := fmt.Sprintf("%016x", s.Corpus().Fingerprint()); resp.Fingerprint != want {
		t.Errorf("Fingerprint = %q, want %q", resp.Fingerprint, want)
	}
	if len(resp.Languages) != 1 || resp.Languages[0] != "pt" {
		t.Errorf("Languages = %v, want [pt]", resp.Languages)
	}
	if resp.Pairs == nil {
		t.Error("Pairs must render as [], not null")
	}
	if a, ok := s.Corpus().Get(wiki.Portuguese, "Página Nova"); !ok || a.Type != "filme" {
		t.Errorf("upserted wikitext not parsed into the corpus: %+v", a)
	}

	cases := []struct {
		name string
		req  protocol.DeltaRequest
		code string
	}{
		{"empty", protocol.DeltaRequest{}, protocol.CodeInvalidArgument},
		{"bad lang", protocol.DeltaRequest{Upserts: []protocol.DeltaUpsert{{Lang: "XX", Title: "T"}}}, protocol.CodeInvalidArgument},
		{"empty title", protocol.DeltaRequest{Upserts: []protocol.DeltaUpsert{{Lang: "pt", Title: "  "}}}, protocol.CodeInvalidArgument},
		{"bad wikitext", protocol.DeltaRequest{Upserts: []protocol.DeltaUpsert{{Lang: "pt", Title: "T", Wikitext: "{{Infobox filme | nome = x"}}}, protocol.CodeInvalidArgument},
		{"remove missing", protocol.DeltaRequest{Removes: []protocol.DeltaRef{{Lang: "pt", Title: "Não Existe"}}}, protocol.CodeNotFound},
	}
	for _, tc := range cases {
		_, err := s.ServeDelta(ctx, tc.req)
		pe := protocol.FromErr(err)
		if err == nil || pe.Code != tc.code {
			t.Errorf("%s: err = %v (code %q), want code %q", tc.name, err, pe.Code, tc.code)
		}
	}
}

// BenchmarkApplyDelta times one corpus delta on the paper corpus with
// pt-en and vi-en warm: a one-value edit and then its restore, on the pt
// and vi editions in turn, so the corpus returns to its original content
// every other op.
func BenchmarkApplyDelta(b *testing.B) {
	c := fullCorpus(b)
	s := New(c)
	ctx := context.Background()
	for _, p := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		if _, err := s.Match(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	var edits [][2]wiki.Delta // per edition: change, restore
	for _, l := range []wiki.Language{wiki.Portuguese, wiki.Vietnamese} {
		a := c.OfType(l, c.Types(l)[0])[0]
		changed := a.Clone()
		changed.Infobox.Attrs[0].Text += " (editado)"
		edits = append(edits, [2]wiki.Delta{
			{Upserts: []*wiki.Article{changed}},
			{Upserts: []*wiki.Article{a.Clone()}},
		})
	}
	orig := c.Fingerprint()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := s.ApplyDelta(ctx, edits[(i/2)%len(edits)][i%2])
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 1 && res.Fingerprint != orig {
			b.Fatalf("restore left fingerprint %016x, want %016x", res.Fingerprint, orig)
		}
	}
}
