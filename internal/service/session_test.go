package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	corpusOnce sync.Once
	testCorpus *wiki.Corpus
	testTruth  *synth.GroundTruth
)

func smallCorpus(t testing.TB) *wiki.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		c, truth, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		testCorpus, testTruth = c, truth
	})
	return testCorpus
}

// smallTruth returns the generator's ground truth for smallCorpus.
func smallTruth(t testing.TB) *synth.GroundTruth {
	t.Helper()
	smallCorpus(t)
	return testTruth
}

// flattenResult renders every observable part of a Result — type
// alignment, per-type correspondences, the full candidate queues with
// their scores, the match components, and the dictionary size — so two
// runs can be compared byte for byte.
func flattenResult(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pair=%s types=%d\n", r.Pair, len(r.Types))
	for _, tp := range r.Types {
		tr := r.PerType[tp]
		fmt.Fprintf(&b, "type %s~%s\n", tp[0], tp[1])
		for _, p := range tr.CrossPairsSorted() {
			fmt.Fprintf(&b, "  cross %s ~ %s\n", p[0], p[1])
		}
		for _, c := range tr.Candidates {
			fmt.Fprintf(&b, "  cand %d %d %.12f %.12f %.12f %.12f %v %v\n",
				c.I, c.J, c.VSim, c.LSim, c.LSI, c.InductiveScore,
				c.AcceptedCertain, c.AcceptedRevision)
		}
		for _, comp := range tr.Matches.Components() {
			fmt.Fprintf(&b, "  comp %v\n", comp)
		}
	}
	if r.Dict != nil {
		fmt.Fprintf(&b, "dict=%d\n", r.Dict.Len())
	}
	return b.String()
}

// TestSessionMatchEquivalence is the fixed-seed equivalence gate: a cold
// session match, a warm (fully cached) session match, and the legacy
// core.Matcher path must all produce byte-identical results.
func TestSessionMatchEquivalence(t *testing.T) {
	c := smallCorpus(t)
	legacy := flattenResult(core.NewMatcher(core.DefaultConfig()).Match(c, wiki.PtEn))

	s := New(c)
	cold, err := s.Match(context.Background(), wiki.PtEn)
	if err != nil {
		t.Fatalf("cold Match: %v", err)
	}
	warm, err := s.Match(context.Background(), wiki.PtEn)
	if err != nil {
		t.Fatalf("warm Match: %v", err)
	}
	if got := flattenResult(cold); got != legacy {
		t.Errorf("cold session result differs from legacy matcher\nlegacy %d bytes, cold %d bytes", len(legacy), len(got))
	}
	if got := flattenResult(warm); got != legacy {
		t.Errorf("warm session result differs from legacy matcher\nlegacy %d bytes, warm %d bytes", len(legacy), len(got))
	}
}

// TestSessionMatchTypeEquivalence checks the single-type entrypoint
// against the legacy per-type call.
func TestSessionMatchTypeEquivalence(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	types, err := s.Types(ctx, wiki.PtEn)
	if err != nil || len(types) == 0 {
		t.Fatalf("Types: %v (%d)", err, len(types))
	}
	tp := types[0]
	got, err := s.MatchType(ctx, wiki.PtEn, tp[0], tp[1])
	if err != nil {
		t.Fatalf("MatchType: %v", err)
	}
	m := core.NewMatcher(core.DefaultConfig())
	d, err := s.Dictionary(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	want := m.MatchType(c, wiki.PtEn, tp[0], tp[1], d)
	if fmt.Sprint(got.CrossPairsSorted()) != fmt.Sprint(want.CrossPairsSorted()) {
		t.Errorf("MatchType cross pairs differ:\n got %v\nwant %v",
			got.CrossPairsSorted(), want.CrossPairsSorted())
	}
}

// TestSessionCacheCounters verifies that the first match populates the
// cache (misses only) and the second is served from it (hits only).
func TestSessionCacheCounters(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	first := s.CacheStats()
	if first.Misses == 0 || first.Hits != 0 {
		t.Fatalf("after cold match: %+v, want misses>0 hits=0", first)
	}
	if first.PairEntries != 1 || first.TypeEntries == 0 {
		t.Fatalf("after cold match: %+v, want 1 pair entry and >0 type entries", first)
	}
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	second := s.CacheStats()
	if second.Misses != first.Misses {
		t.Errorf("warm match rebuilt artifacts: misses %d → %d", first.Misses, second.Misses)
	}
	// One pair-entry hit plus one hit per type.
	wantHits := uint64(1 + first.TypeEntries)
	if second.Hits != wantHits {
		t.Errorf("warm match hits = %d, want %d", second.Hits, wantHits)
	}
}

// TestInvalidate checks that Invalidate actually drops entries — for one
// language, only the pairs containing it — and that matching afterwards
// rebuilds and still returns the same result.
func TestInvalidate(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	ptRes, err := s.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Match(ctx, wiki.VnEn); err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats()
	if before.PairEntries != 2 {
		t.Fatalf("pair entries = %d, want 2", before.PairEntries)
	}

	dropped := s.Invalidate(wiki.Portuguese)
	if dropped == 0 {
		t.Fatal("Invalidate(pt) dropped nothing")
	}
	after := s.CacheStats()
	if after.PairEntries != 1 {
		t.Errorf("pair entries after Invalidate(pt) = %d, want 1 (vi-en kept)", after.PairEntries)
	}
	if after.TypeEntries >= before.TypeEntries {
		t.Errorf("type entries after Invalidate(pt) = %d, want < %d", after.TypeEntries, before.TypeEntries)
	}
	if dropped != (before.PairEntries-after.PairEntries)+(before.TypeEntries-after.TypeEntries) {
		t.Errorf("dropped = %d, inconsistent with stats %+v → %+v", dropped, before, after)
	}

	// Rebuild gives the same answer.
	again, err := s.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	if flattenResult(again) != flattenResult(ptRes) {
		t.Error("post-invalidate match differs from original")
	}
	if s.CacheStats().Misses == before.Misses {
		t.Error("post-invalidate match did not rebuild anything")
	}

	if n := s.Invalidate(""); n == 0 {
		t.Error("Invalidate(\"\") dropped nothing")
	}
	if st := s.CacheStats(); st.PairEntries != 0 || st.TypeEntries != 0 {
		t.Errorf("cache not empty after full invalidation: %+v", st)
	}
}

// TestConcurrentMatch hammers one session from many goroutines across
// both pairs; every result must equal the single-threaded one and the
// single-flight cache must build each artifact exactly once. Run with
// -race this doubles as the data-race gate.
func TestConcurrentMatch(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()

	want := map[wiki.LanguagePair]string{}
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		want[pair] = flattenResult(core.NewMatcher(core.DefaultConfig()).Match(c, pair))
	}

	const per = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*per)
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		for g := 0; g < per; g++ {
			wg.Add(1)
			go func(pair wiki.LanguagePair) {
				defer wg.Done()
				res, err := s.Match(ctx, pair)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", pair, err)
					return
				}
				if flattenResult(res) != want[pair] {
					errs <- fmt.Errorf("%s: concurrent result differs", pair)
				}
			}(pair)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.CacheStats()
	if st.PairEntries != 2 {
		t.Errorf("pair entries = %d, want 2", st.PairEntries)
	}
	// Single-flight: each artifact built exactly once — misses equal the
	// number of cache entries.
	if st.Misses != uint64(st.PairEntries+st.TypeEntries) {
		t.Errorf("misses = %d, want %d (one build per entry): %+v",
			st.Misses, st.PairEntries+st.TypeEntries, st)
	}
}

// TestMatchStream checks the stream delivers exactly the pair's types,
// with results identical to a blocking Match.
func TestMatchStream(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	blocking, err := s.Match(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := s.MatchStream(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for u := range updates {
		if u.Err != nil {
			t.Fatalf("stream error for %s: %v", u.TypeA, u.Err)
		}
		if u.Total != len(blocking.Types) {
			t.Fatalf("update total = %d, want %d", u.Total, len(blocking.Types))
		}
		got[u.TypeA] = fmt.Sprint(u.Result.CrossPairsSorted())
	}
	if len(got) != len(blocking.Types) {
		t.Fatalf("streamed %d types, want %d", len(got), len(blocking.Types))
	}
	for _, tp := range blocking.Types {
		if got[tp[0]] != fmt.Sprint(blocking.PerType[tp].CrossPairsSorted()) {
			t.Errorf("type %s: streamed result differs from blocking match", tp[0])
		}
	}
}

// TestEmptyAlignmentEncodesEmpty: a pair without matched entity types
// (pt-vi has no cross-language links in the test corpus) answers
// "types":[] rather than null, cold and warm, unary and streamed.
func TestEmptyAlignmentEncodesEmpty(t *testing.T) {
	s := New(smallCorpus(t))
	ctx := context.Background()
	req := protocol.MatchRequest{Pair: "pt-vi"}
	for _, run := range []string{"cold", "warm"} {
		resp, err := s.ServeMatch(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := s.ServeStream(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var final *protocol.MatchResponse
		for line := range lines {
			final = line.FinalMatch
		}
		for name, r := range map[string]*protocol.MatchResponse{"match": resp, "stream": final} {
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(raw), `"types":[]`) {
				t.Errorf("%s %s answer: %s, want \"types\":[]", run, name, raw)
			}
		}
	}
}

// TestMatchStreamAbandoned abandons a stream mid-read without cancelling
// the context. The buffered channel must let every worker finish and
// close the stream anyway — draining later yields the full set.
func TestMatchStreamAbandoned(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	updates, err := s.MatchStream(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	first := <-updates
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	// Walk away; the session must stay fully usable.
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	// The abandoned stream completed and closed behind our back.
	deadline := time.After(30 * time.Second)
	got := 1
	for {
		select {
		case _, ok := <-updates:
			if !ok {
				if got != first.Total {
					t.Fatalf("abandoned stream delivered %d of %d types", got, first.Total)
				}
				return
			}
			got++
		case <-deadline:
			t.Fatal("abandoned stream never closed — worker leak")
		}
	}
}

// TestSessionOptions checks functional options reach the session's
// parameters in order: later options win, and every other field keeps
// the paper's setting.
func TestSessionOptions(t *testing.T) {
	want := core.DefaultConfig()
	want.TSim, want.TLSI = 0.7, 0.2
	cfg := New(smallCorpus(t), WithTSim(0.9), WithTLSI(0.3), WithTSim(0.7), WithTLSI(0.2)).Config()
	if cfg != want {
		t.Errorf("options not applied: %+v, want %+v", cfg, want)
	}
}
