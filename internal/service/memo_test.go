package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// memoOf returns the alignment memoized on a type node, or nil when the
// node is not cached or its memo is empty.
func memoOf(s *Session, pair wiki.LanguagePair, typeA, typeB string) *typeMatch {
	v, ok := s.eng.Value(artifact.TypeKey(pair, typeA, typeB))
	if !ok {
		return nil
	}
	n := v.(*typeNode)
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.match
}

// canonicalJSON encodes v with the fields that legitimately differ
// between a warm session and a fresh one normalized: timings scrubbed as
// the v1 goldens do, cache counters dropped, and stream progress
// counters zeroed.
func canonicalJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var x any
	if err := json.Unmarshal(raw, &x); err != nil {
		t.Fatal(err)
	}
	scrubVolatile(x)
	dropCacheStats(x)
	if m, ok := x.(map[string]any); ok {
		if _, ok := m["done"]; ok {
			m["done"] = 0.0
		}
	}
	out, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func dropCacheStats(v any) {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "cache")
		for _, val := range x {
			dropCacheStats(val)
		}
	case []any:
		for _, val := range x {
			dropCacheStats(val)
		}
	}
}

// servedOutputs renders every serving path's answer on s for the
// memo-equals-rebuild comparison: pair and single-type ServeMatch, the
// pair stream, ServeMatchAll and ServeAudit.
func servedOutputs(t *testing.T, s *Session, singleType string) map[string]string {
	t.Helper()
	ctx := context.Background()
	out := make(map[string]string)
	for _, req := range []protocol.MatchRequest{
		{Pair: "pt-en"}, {Pair: "vi-en"}, {Pair: "pt-en", Type: singleType},
	} {
		resp, err := s.ServeMatch(ctx, req)
		if err != nil {
			t.Fatalf("ServeMatch(%+v): %v", req, err)
		}
		out["match "+req.Pair+" "+req.Type] = canonicalJSON(t, resp)
	}
	lines, err := s.ServeStream(ctx, protocol.MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatalf("ServeStream: %v", err)
	}
	var stream []string
	for line := range lines {
		stream = append(stream, canonicalJSON(t, line))
	}
	sort.Strings(stream) // completion order is scheduling-dependent
	out["stream"] = strings.Join(stream, "\n")
	all, err := s.ServeMatchAll(ctx, protocol.MatchRequest{All: true})
	if err != nil {
		t.Fatalf("ServeMatchAll: %v", err)
	}
	out["matchall"] = canonicalJSON(t, all)
	aud, err := s.ServeAudit(ctx, protocol.AuditRequest{Limit: 20})
	if err != nil {
		t.Fatalf("ServeAudit: %v", err)
	}
	out["audit"] = canonicalJSON(t, aud)
	return out
}

// seededEdit picks a value edit in the style of the pipeline benchmark's
// churn stream: one article of the language and type gets one attribute
// value replaced by another article's value for the same attribute. It
// returns the edited article and the original, whose upsert restores the
// corpus.
func seededEdit(t *testing.T, rng *rand.Rand, c *wiki.Corpus, lang wiki.Language, typ string) (changed, orig *wiki.Article) {
	t.Helper()
	arts := c.OfType(lang, typ)
	for try := 0; try < 200 && len(arts) > 1; try++ {
		a, donor := arts[rng.Intn(len(arts))], arts[rng.Intn(len(arts))]
		if a == donor || a.Infobox == nil || donor.Infobox == nil || len(a.Infobox.Attrs) == 0 {
			continue
		}
		k := rng.Intn(len(a.Infobox.Attrs))
		dv, ok := donor.Infobox.Get(a.Infobox.Attrs[k].Name)
		if !ok || dv.Text == a.Infobox.Attrs[k].Text {
			continue
		}
		changed = a.Clone()
		changed.Infobox.Attrs[k] = dv.Clone()
		return changed, a.Clone()
	}
	t.Fatalf("no editable %s article of type %q", lang, typ)
	return nil, nil
}

// TestMemoEqualsRebuild applies a seeded sequence of edit and restore
// deltas to one warm session. After every delta, each serving path must
// answer byte-identically to a fresh session on the same corpus; a type
// the delta did not dirty must keep its memoized *TypeResult, and a
// dirtied type must get a new one.
func TestMemoEqualsRebuild(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	const singleType = "filme"
	servedOutputs(t, s, singleType) // warm every node and memo

	pairs := []wiki.LanguagePair{wiki.PtEn, wiki.VnEn}
	memoized := func() map[artifact.Key]*core.TypeResult {
		out := make(map[artifact.Key]*core.TypeResult)
		for _, pair := range pairs {
			res, err := s.Match(ctx, pair)
			if err != nil {
				t.Fatal(err)
			}
			for tp, tr := range res.PerType {
				out[artifact.TypeKey(pair, tp[0], tp[1])] = tr
			}
		}
		return out
	}

	rng := rand.New(rand.NewSource(1))
	langs := []wiki.Language{wiki.Portuguese, wiki.Vietnamese, wiki.English}
	var kept, renewed int
	for round := 0; round < 3; round++ {
		lang := langs[round%len(langs)]
		types := c.Types(lang)
		changed, orig := seededEdit(t, rng, s.Corpus(), lang, types[rng.Intn(len(types))])
		for step, art := range []*wiki.Article{changed, orig} {
			before := memoized()
			res, err := s.ApplyDelta(ctx, wiki.Delta{Upserts: []*wiki.Article{art}})
			if err != nil {
				t.Fatalf("round %d step %d: ApplyDelta: %v", round, step, err)
			}
			dirty := make(map[artifact.Key]bool)
			for _, pe := range res.Pairs {
				for _, tp := range pe.DroppedTypes {
					dirty[artifact.TypeKey(pe.Pair, tp[0], tp[1])] = true
				}
			}

			got := servedOutputs(t, s, singleType)
			want := servedOutputs(t, New(s.Corpus()), singleType)
			for name, w := range want {
				if got[name] != w {
					t.Errorf("round %d step %d (%s %s): %s differs from a fresh session\n got %.300s\nwant %.300s",
						round, step, lang, art.Title, name, got[name], w)
				}
			}

			after := memoized()
			for k, tr := range before {
				switch {
				case dirty[k] && after[k] == tr:
					t.Errorf("round %d step %d: dirtied type %v kept its memoized result", round, step, k)
				case !dirty[k] && after[k] != tr:
					t.Errorf("round %d step %d: clean type %v lost its memoized result", round, step, k)
				case dirty[k]:
					renewed++
				default:
					kept++
				}
			}
		}
	}
	if kept == 0 || renewed == 0 {
		t.Fatalf("delta sequence exercised %d kept and %d renewed memos; need both", kept, renewed)
	}
}

// deltaKinds are the edits randomDelta draws. Every kind but "value" is
// structural. The "type" kinds hit every article of one side of an
// aligned pt-en type pair, so that the entity-type alignment changes.
var deltaKinds = []string{
	"value", "retype", "retype type", "link add", "link drop", "link retarget",
	"drop infobox", "drop infobox type", "add", "remove",
}

// randomDelta draws a delta on distinct articles of c: the edit of the
// given kind, then up to two value edits.
func randomDelta(t *testing.T, rng *rand.Rand, c *wiki.Corpus, kind string, aligned [][2]string, next *int) wiki.Delta {
	t.Helper()
	var all []*wiki.Article
	for _, l := range c.Languages() {
		all = append(all, c.Articles(l)...)
	}
	used := make(map[wiki.Key]bool)
	pick := func(ok func(*wiki.Article) bool) *wiki.Article {
		for range 1000 {
			if a := all[rng.Intn(len(all))]; !used[a.Key()] && ok(a) {
				used[a.Key()] = true
				return a
			}
		}
		t.Fatal("no article left to edit")
		return nil
	}
	other := func(a *wiki.Article, ok func(*wiki.Article) bool) *wiki.Article {
		for range 1000 {
			if b := all[rng.Intn(len(all))]; b != a && ok(b) {
				return b
			}
		}
		t.Fatal("no article to link to")
		return nil
	}
	// alignedType returns every article of one side of an aligned pair.
	alignedType := func() []*wiki.Article {
		tp := aligned[rng.Intn(len(aligned))]
		arts := c.OfType(wiki.Portuguese, tp[0])
		if rng.Intn(2) == 0 {
			arts = c.OfType(wiki.English, tp[1])
		}
		for _, a := range arts {
			used[a.Key()] = true
		}
		return arts
	}
	hasAttrs := func(a *wiki.Article) bool { return a.Infobox != nil && a.Infobox.Len() > 0 }
	hasLinks := func(a *wiki.Article) bool { return len(a.CrossLinks) > 0 }

	var d wiki.Delta
	upsert := func(u *wiki.Article) { d.Upserts = append(d.Upserts, u) }
	retype := func(a *wiki.Article) {
		u := a.Clone()
		u.Type += " (renomeado)"
		upsert(u)
	}
	dropInfobox := func(a *wiki.Article) {
		u := a.Clone()
		u.Infobox = nil
		upsert(u)
	}
	switch kind {
	case "retype":
		retype(pick(func(a *wiki.Article) bool { return a.Type != "" }))
	case "retype type":
		for _, a := range alignedType() {
			retype(a)
		}
	case "link add": // into a language not linked yet
		u := pick(func(a *wiki.Article) bool { return len(a.CrossLinks) < len(c.Languages())-1 }).Clone()
		b := other(u, func(b *wiki.Article) bool {
			_, linked := u.CrossLinks[b.Language]
			return b.Language != u.Language && !linked
		})
		u.SetCrossLink(b.Language, b.Title)
		upsert(u)
	case "link drop":
		u := pick(hasLinks).Clone()
		delete(u.CrossLinks, u.SortedCrossLinks()[0].Language)
		upsert(u)
	case "link retarget": // within the link's language
		u := pick(hasLinks).Clone()
		l := u.SortedCrossLinks()[0]
		b := other(u, func(b *wiki.Article) bool { return b.Language == l.Language && b.Title != l.Title })
		u.SetCrossLink(l.Language, b.Title)
		upsert(u)
	case "drop infobox":
		dropInfobox(pick(func(a *wiki.Article) bool { return a.Infobox != nil }))
	case "drop infobox type":
		for _, a := range alignedType() {
			dropInfobox(a)
		}
	case "add": // a copy of an infobox article under a new title
		*next++
		a := other(nil, hasAttrs).Clone()
		a.Title = fmt.Sprintf("Novo %d", *next)
		upsert(a)
	case "remove":
		d.Removes = append(d.Removes, pick(func(*wiki.Article) bool { return true }).Key())
	}
	values := rng.Intn(3)
	if kind == "value" {
		values++
	}
	for range values {
		u := pick(hasAttrs).Clone()
		u.Infobox.Attrs[rng.Intn(u.Infobox.Len())].Text += " (editado)"
		upsert(u)
	}
	return d
}

// TestDeltaEqualsRebuild applies seeded random deltas that mix value
// edits with every structural edit kind to one warm session. After each
// delta, every cached pair node must equal a fresh build from the edited
// corpus, and every serving path must answer byte-identically to a
// fresh session on the same corpus. A delta that is not structural must
// keep every pair node: no pair reports Rebuilt, the delta builds
// nothing, and serving afterwards builds no pair node.
func TestDeltaEqualsRebuild(t *testing.T) {
	c := smallCorpus(t)
	const singleType = "filme"
	ctx := context.Background()
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := New(c)
			servedOutputs(t, s, singleType) // warm every node and memo
			rng := rand.New(rand.NewSource(seed))
			next := 0
			// Every edit kind once, value edits twice more, in random order.
			kinds := append([]string{"value", "value"}, deltaKinds...)
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			for step, kind := range kinds {
				types, err := s.Types(ctx, wiki.PtEn)
				if err != nil {
					t.Fatal(err)
				}
				aligned := slices.DeleteFunc(types, func(tp [2]string) bool { return tp[0] == singleType })
				d := randomDelta(t, rng, s.Corpus(), kind, aligned, &next)
				isStructural := kind != "value"
				pairs := s.eng.Keys(artifact.KindPair)
				builds := make(map[artifact.Key]uint64, len(pairs))
				for _, k := range pairs {
					builds[k] = s.eng.NodeStats(k).Builds
				}
				misses := s.CacheStats().Misses
				res, err := s.ApplyDelta(ctx, d)
				if err != nil {
					t.Fatalf("step %d: ApplyDelta: %v", step, err)
				}
				if !isStructural {
					for _, pe := range res.Pairs {
						if pe.Rebuilt {
							t.Errorf("step %d: value-only delta rebuilt %s", step, pe.Pair)
						}
					}
					if got := s.CacheStats().Misses; got != misses {
						t.Errorf("step %d: value-only delta built %d nodes", step, got-misses)
					}
				}
				for _, k := range s.eng.Keys(artifact.KindPair) {
					v, _ := s.eng.Value(k)
					fresh, err := s.buildPairData(ctx, s.Corpus(), k.Pair)
					if err != nil {
						t.Fatal(err)
					}
					if pd := v.(*pairData); !alignmentsEqual(pd.types, fresh.types) || !pd.dict.Equal(fresh.dict) {
						t.Errorf("step %d (structural %t): cached %s pair artifacts differ from a fresh build", step, isStructural, k.Pair)
					}
				}

				got := servedOutputs(t, s, singleType)
				want := servedOutputs(t, New(s.Corpus()), singleType)
				for name, w := range want {
					if got[name] != w {
						t.Errorf("step %d (structural %t, %d upserts, %d removes): %s differs from a fresh session\n got %.300s\nwant %.300s",
							step, isStructural, len(d.Upserts), len(d.Removes), name, got[name], w)
					}
				}
				if !isStructural {
					for k, n := range builds {
						if b := s.eng.NodeStats(k).Builds; b != n {
							t.Errorf("step %d: pair node %v rebuilt after a value-only delta (%d builds, was %d)", step, k.Pair, b, n)
						}
					}
				}
			}
		})
	}
}

// TestMemoCancelledNotMemoized cancels the first computation of a type's
// memo mid-flight while a second request waits on it. The failure must
// not be memoized: the waiter retries with its own live context, its
// result fills the memo, and it equals a cold alignment.
func TestMemoCancelledNotMemoized(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	types, err := s.Types(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	tp := types[0]
	st := s.state.Load()
	pd, err := s.pairArtifacts(ctx, st, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	node, err := s.typeNode(ctx, st, wiki.PtEn, tp[0], tp[1], pd.dict)
	if err != nil {
		t.Fatal(err)
	}

	first, cancel := context.WithCancel(ctx)
	started := make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		_, err := node.matched(first, func(ctx context.Context) (*core.TypeResult, error) {
			close(started)
			<-ctx.Done() // cancelled mid-computation
			return nil, ctx.Err()
		})
		firstErr <- err
	}()
	<-started

	var recomputed atomic.Bool
	waiterDone := make(chan *typeMatch, 1)
	go func() {
		tm, err := node.matched(ctx, func(ctx context.Context) (*core.TypeResult, error) {
			recomputed.Store(true)
			return s.m.MatchTypeCtx(ctx, st.corpus, wiki.PtEn, tp[0], tp[1], pd.dict, node.art)
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterDone <- tm
	}()
	cancel()
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled computation returned %v, want context.Canceled", err)
	}
	tm := <-waiterDone
	if !recomputed.Load() || tm == nil || tm.tr == nil {
		t.Fatal("waiter did not recompute the cancelled alignment")
	}
	if got := memoOf(s, wiki.PtEn, tp[0], tp[1]); got != tm {
		t.Fatalf("memo holds %p after the retry, want the waiter's %p", got, tm)
	}
	want := core.NewMatcher(s.Config()).MatchType(c, wiki.PtEn, tp[0], tp[1], pd.dict)
	if got, w := canonicalJSON(t, tm.tr.CrossPairsSorted()), canonicalJSON(t, want.CrossPairsSorted()); got != w {
		t.Errorf("retried memo differs from a cold alignment:\n got %s\nwant %s", got, w)
	}
	if again, err := s.MatchType(ctx, wiki.PtEn, tp[0], tp[1]); err != nil || again != tm.tr {
		t.Errorf("MatchType after the retry = %p, %v; want the memoized %p", again, err, tm.tr)
	}
}

// TestMemoBypassedByOverrides: a threshold-override request neither
// fills the memo on a cold session nor reads or replaces it on a warm
// one, whether it is a unary match or a pair stream, whose FinalMatch
// must equal the unary answer.
func TestMemoBypassedByOverrides(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	override := protocol.MatchRequest{Pair: "pt-en", TSim: f64p(0.8)}
	want, err := New(c, WithTSim(0.8)).ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatal(err)
	}

	for name, serve := range map[string]func(t *testing.T, s *Session) *protocol.MatchResponse{
		"match": func(t *testing.T, s *Session) *protocol.MatchResponse {
			resp, err := s.ServeMatch(ctx, override)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
		"stream": func(t *testing.T, s *Session) *protocol.MatchResponse {
			lines, err := s.ServeStream(ctx, override)
			if err != nil {
				t.Fatal(err)
			}
			var final *protocol.MatchResponse
			for line := range lines {
				if line.Error != nil {
					t.Fatal(line.Error)
				}
				if line.FinalMatch != nil {
					final = line.FinalMatch
				}
			}
			if final == nil {
				t.Fatal("override stream closed without a FinalMatch line")
			}
			return final
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := New(c)
			cold := serve(t, s)
			if string(stripTimings(t, cold)) != string(stripTimings(t, want)) {
				t.Error("override response on a cold session differs from a session configured with the override")
			}
			types, err := s.Types(ctx, wiki.PtEn)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range types {
				if memoOf(s, wiki.PtEn, tp[0], tp[1]) != nil {
					t.Fatalf("override request filled the memo of %v", tp)
				}
			}

			warm, err := s.Match(ctx, wiki.PtEn)
			if err != nil {
				t.Fatal(err)
			}
			got := serve(t, s)
			if string(stripTimings(t, got)) != string(stripTimings(t, want)) {
				t.Error("override response on a warm session differs from a session configured with the override")
			}
			single, err := s.ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en", Type: types[0][0], TSim: f64p(0.8)})
			if err != nil {
				t.Fatal(err)
			}
			if len(single.Results) != 1 {
				t.Fatalf("single-type override returned %d results", len(single.Results))
			}
			for _, tp := range types {
				if tm := memoOf(s, wiki.PtEn, tp[0], tp[1]); tm == nil || tm.tr != warm.PerType[tp] {
					t.Errorf("override request replaced the memo of %v", tp)
				}
			}
		})
	}
}

// TestWarmMatchIsLookup guards the warm path on both of the paper's
// pairs: with every artifact and memo in place, a Session.Match
// allocates a handful of objects per type — scheduling and result
// assembly — instead of re-running Algorithm 1, which costs on the order
// of a thousand allocations per type.
func TestWarmMatchIsLookup(t *testing.T) {
	c := smallCorpus(t)
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		t.Run(pair.String(), func(t *testing.T) {
			s := New(c)
			ctx := context.Background()
			res, err := s.Match(ctx, pair)
			if err != nil {
				t.Fatal(err)
			}
			types := len(res.Types)
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.Match(ctx, pair); err != nil {
					t.Fatal(err)
				}
			})
			if limit := float64(4*types + 32); allocs > limit {
				t.Fatalf("warm %s Match allocates %.0f times over %d types, want at most %.0f", pair, allocs, types, limit)
			}
			t.Logf("warm %s Match: %.0f allocations over %d types", pair, allocs, types)
		})
	}
}
