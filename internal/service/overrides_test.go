package service

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

func f64p(v float64) *float64 { return &v }

// stripTimings zeroes the load-dependent fields of a match response and
// encodes what is left.
func stripTimings(t *testing.T, r *protocol.MatchResponse) []byte {
	t.Helper()
	cp := *r
	cp.ElapsedMS = 0
	cp.Cache = protocol.CacheStats{}
	cp.Results = append([]protocol.TypeResult(nil), r.Results...)
	for i := range cp.Results {
		cp.Results[i].ElapsedMS = 0
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeMatchScoringOverrides sends threshold overrides to one warm
// session. Each response must equal the one a session configured with
// those thresholds gives, and no override may rebuild an artifact:
// thresholds are match-time parameters, not artifact-shaping ones.
func TestServeMatchScoringOverrides(t *testing.T) {
	c := smallCorpus(t)
	s := New(c)
	ctx := context.Background()
	if _, err := s.ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en"}); err != nil {
		t.Fatal(err)
	}
	misses := s.CacheStats().Misses
	// No exported option sets TEg; a session configured with it takes
	// an Option literal.
	tsimTEg := Option(func(p *core.Params) { p.TSim, p.TEg = 0.5, 0.2 })
	for _, tc := range []struct {
		req  protocol.MatchRequest
		opts []Option
	}{
		{protocol.MatchRequest{Pair: "pt-en", TSim: f64p(0.8)}, []Option{WithTSim(0.8)}},
		{protocol.MatchRequest{Pair: "pt-en", TLSI: f64p(0.3)}, []Option{WithTLSI(0.3)}},
		{protocol.MatchRequest{Pair: "pt-en", TSim: f64p(0.5), TEg: f64p(0.2)}, []Option{tsimTEg}},
	} {
		got, err := s.ServeMatch(ctx, tc.req)
		if err != nil {
			t.Fatalf("ServeMatch(%+v): %v", tc.req, err)
		}
		want, err := New(c, tc.opts...).ServeMatch(ctx, protocol.MatchRequest{Pair: "pt-en"})
		if err != nil {
			t.Fatal(err)
		}
		if string(stripTimings(t, got)) != string(stripTimings(t, want)) {
			t.Errorf("override %+v differs from a session configured with it", tc.req)
		}
	}
	if got := s.CacheStats().Misses; got != misses {
		t.Fatalf("threshold overrides rebuilt artifacts: misses %d → %d", misses, got)
	}
}

// TestSessionScoringOptions checks the threshold options reach the
// matcher configuration and leave the artifact-shaping fields alone.
func TestSessionScoringOptions(t *testing.T) {
	base := New(smallCorpus(t)).Config()
	cfg := New(smallCorpus(t), WithTSim(0.7), WithTLSI(0.2)).Config()
	if cfg.TSim != 0.7 || cfg.TLSI != 0.2 {
		t.Errorf("options not applied: %+v", cfg)
	}
	cfg.TSim, cfg.TLSI = base.TSim, base.TLSI
	if cfg != base {
		t.Errorf("threshold options changed other fields: %+v, want %+v", cfg, base)
	}
}

// TestServeMatchSingleTypeOverride exercises the single-type path with a
// threshold override, which shares matcherFor with the pair path.
func TestServeMatchSingleTypeOverride(t *testing.T) {
	c := smallCorpus(t)
	ctx := context.Background()
	req := protocol.MatchRequest{Pair: wiki.PtEn.String(), Type: "filme"}
	want, err := New(c, WithTSim(0.8)).ServeMatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req.TSim = f64p(0.8)
	got, err := New(c).ServeMatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if string(stripTimings(t, got)) != string(stripTimings(t, want)) {
		t.Fatal("single-type tsim override differs from a session configured with it")
	}
}
