package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/wiki"
)

// TestRestoreMatchEquivalence is the round-trip gate: a session saved
// warm and restored into a fresh process must produce byte-identical
// Match results for both of the paper's pairs, and serving from the
// restored cache must count as hits, not misses.
func TestRestoreMatchEquivalence(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	pairs := []wiki.LanguagePair{wiki.PtEn, wiki.VnEn}

	warm := New(c)
	cold := make(map[wiki.LanguagePair]string)
	for _, pair := range pairs {
		res, err := warm.Match(ctx, pair)
		if err != nil {
			t.Fatalf("cold %s: %v", pair, err)
		}
		cold[pair] = flattenResult(res)
	}

	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	restored, err := Restore(c, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	stats := restored.CacheStats()
	if stats.RestoredPairs != len(pairs) {
		t.Errorf("RestoredPairs = %d, want %d", stats.RestoredPairs, len(pairs))
	}
	if stats.RestoredTypes == 0 || stats.RestoredTypes != stats.TypeEntries {
		t.Errorf("RestoredTypes = %d, TypeEntries = %d", stats.RestoredTypes, stats.TypeEntries)
	}
	if _, ok := restored.SnapshotTime(); !ok {
		t.Error("restored session reports no snapshot time")
	}
	if _, ok := warm.SnapshotTime(); ok {
		t.Error("cold session reports a snapshot time")
	}

	for _, pair := range pairs {
		res, err := restored.Match(ctx, pair)
		if err != nil {
			t.Fatalf("restored %s: %v", pair, err)
		}
		if got := flattenResult(res); got != cold[pair] {
			t.Errorf("%s: restored result differs from cold build (%d vs %d bytes)",
				pair, len(got), len(cold[pair]))
		}
	}
	stats = restored.CacheStats()
	if stats.Misses != 0 {
		t.Errorf("restored session recorded %d misses; every artifact should have been seeded", stats.Misses)
	}
	if stats.Hits == 0 {
		t.Error("restored session recorded no cache hits")
	}
}

// TestSaveSkipsFailedAndInFlight asserts Save only persists completed
// artifacts: a snapshot taken mid-build must load into a session that
// simply rebuilds whatever was missing.
func TestSaveSkipsIncomplete(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	s := New(c)
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}

	// Start a build that blocks until the test ends: Save must skip the
	// in-flight vi-en pair entry it creates in the engine.
	inBuild := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, _ = s.eng.Get(ctx, artifact.PairKey(wiki.VnEn), 0, func(context.Context) (any, error) {
			close(inBuild)
			<-release
			return nil, context.Canceled
		})
	}()
	<-inBuild

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := Restore(c, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := restored.CacheStats().RestoredPairs; got != 1 {
		t.Errorf("RestoredPairs = %d, want 1 (in-flight entry must be skipped)", got)
	}
	if _, err := restored.Match(ctx, wiki.VnEn); err != nil {
		t.Fatalf("match on missing pair after restore: %v", err)
	}
}

// TestRestoreFingerprintMismatch: a snapshot from one corpus must be
// rejected against another, with the typed error.
func TestRestoreFingerprintMismatch(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	s := New(c)
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	other := wiki.NewCorpus()
	art := &wiki.Article{Language: wiki.English, Title: "Lone", Type: "film"}
	other.MustAdd(art)
	_, err := Restore(other, bytes.NewReader(buf.Bytes()))
	var fe *store.FingerprintError
	if !errors.As(err, &fe) {
		t.Fatalf("Restore against wrong corpus: got %v, want FingerprintError", err)
	}
}

// TestRestoreConfigMismatch: a snapshot whose artifacts a cold build
// with the requested parameters would not produce must be rejected
// with a typed error, by the full and the filtered restore alike; pure
// matching thresholds must be accepted.
func TestRestoreConfigMismatch(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	s := New(c)
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A pair section without a dictionary is the trace a snapshot of the
	// NoDictionary ablation leaves.
	snap, err := store.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snap.Pairs[0].Dict = nil
	var noDict bytes.Buffer
	if err := store.Write(&noDict, snap); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		field string
		raw   []byte
		opts  []Option
	}{
		{"LSIRank", buf.Bytes(), []Option{func(p *core.Params) { p.LSIRank = 20 }}},
		{"dictionary", noDict.Bytes(), nil},
	} {
		for name, keep := range map[string]func(wiki.LanguagePair) bool{
			"full":     nil,
			"filtered": func(p wiki.LanguagePair) bool { return p == wiki.PtEn },
		} {
			_, err := RestoreFiltered(c, bytes.NewReader(tc.raw), keep, tc.opts...)
			var cm *store.ConfigMismatchError
			if !errors.As(err, &cm) || cm.Field != tc.field {
				t.Errorf("%s, %s restore: got %v, want ConfigMismatchError{Field: %q}", tc.field, name, err, tc.field)
			}
		}
	}

	// Threshold changes only reshape the per-request alignment; they must
	// restore fine and still serve from the cache.
	restored, err := Restore(c, bytes.NewReader(buf.Bytes()), WithTSim(0.8), WithTLSI(0.2))
	if err != nil {
		t.Fatalf("threshold-only restore: %v", err)
	}
	if got := restored.Config().TSim; got != 0.8 {
		t.Errorf("TSim = %v, want 0.8", got)
	}
	if _, err := restored.Match(ctx, wiki.PtEn); err != nil {
		t.Fatalf("match after threshold-only restore: %v", err)
	}
	if ms := restored.CacheStats().Misses; ms != 0 {
		t.Errorf("threshold-only restore rebuilt %d artifacts", ms)
	}
}

// TestRestoredStatsOverHTTP asserts the warm-start counters are
// observable through /v1/corpus on a server built over a restored
// session.
func TestRestoredStatsOverHTTP(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	s := New(c)
	if _, err := s.Match(ctx, wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(c, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(restored))
	defer srv.Close()

	var stats protocol.StatsResponse
	getJSON(t, srv.URL+"/v1/corpus", http.StatusOK, &stats)
	if stats.Cache.RestoredPairs != 1 || stats.Cache.RestoredTypes == 0 {
		t.Errorf("restored counters not exposed: %+v", stats.Cache)
	}
	raw, err := json.Marshal(stats.Cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"restoredPairs", "restoredTypes"} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Errorf("cache stats JSON missing %q: %s", field, raw)
		}
	}
}

// TestRestoreGarbage: random bytes and truncations surface the store's
// typed errors through Restore unchanged.
func TestRestoreGarbage(t *testing.T) {
	c := smallCorpus(t)
	if _, err := Restore(c, bytes.NewReader([]byte("junk junk junk junk"))); !errors.Is(err, store.ErrBadMagic) {
		t.Errorf("garbage restore: %v", err)
	}
	s := New(c)
	if _, err := s.Match(context.Background(), wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Restore(c, bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	if err == nil {
		t.Fatal("truncated restore succeeded")
	}
}
