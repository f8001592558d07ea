package service

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
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
	want := core.NewMatcher(s.cfg).MatchType(c, wiki.PtEn, tp[0], tp[1], pd.dict)
	if got, w := canonicalJSON(t, tm.tr.CrossPairsSorted()), canonicalJSON(t, want.CrossPairsSorted()); got != w {
		t.Errorf("retried memo differs from a cold alignment:\n got %s\nwant %s", got, w)
	}
	if again, err := s.MatchType(ctx, wiki.PtEn, tp[0], tp[1]); err != nil || again != tm.tr {
		t.Errorf("MatchType after the retry = %p, %v; want the memoized %p", again, err, tm.tr)
	}
}

// TestMemoBypassedByOverrides: a threshold-override request neither
// fills the memo on a cold session nor reads it on a warm one.
func TestMemoBypassedByOverrides(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	override := protocol.MatchRequest{Pair: "pt-en", TSim: f64p(0.8)}
	want, err := New(c, WithTSim(0.8)).ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatal(err)
	}

	s := New(c)
	if _, err := s.ServeMatch(ctx, override); err != nil {
		t.Fatal(err)
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
	got, err := s.ServeMatch(ctx, override)
	if err != nil {
		t.Fatal(err)
	}
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
