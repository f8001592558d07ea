package service

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// The typed execution path of protocol v1. ServeMatch and ServeStream
// are the one implementation behind the HTTP handlers, the Go client's
// in-process backend and the CLI: every entrypoint builds a
// protocol.MatchRequest and funnels it through here, so validation,
// threshold overrides and response assembly cannot drift between
// surfaces. With the batch routes (batch.go) and the control-plane
// methods below they make *Session the single binary's Backend.

// ServeMatch answers a pair or single-type MatchRequest. All-pairs
// requests are rejected — they belong to ServeMatchAll.
func (s *Session) ServeMatch(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchResponse, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.All {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "all-pairs request must be sent to /v1/matchall")
	}
	m := s.matcherFor(r.Overrides)
	start := time.Now()
	if r.Type != "" {
		typeB, err := s.counterpartType(ctx, r)
		if err != nil {
			return nil, err
		}
		tm, err := s.matchTypeWith(ctx, r.Pair, r.Type, typeB, m)
		if err != nil {
			return nil, protocol.FromErr(err)
		}
		resp := s.matchResponse(r.Pair, [][2]string{{r.Type, typeB}}, []*typeMatch{tm}, start)
		resp.Results[0].ElapsedMS = resp.ElapsedMS
		return resp, nil
	}
	pd, matches, err := s.matchWith(ctx, r.Pair, m)
	if err != nil {
		return nil, protocol.FromErr(err)
	}
	return s.matchResponse(r.Pair, pd.types, matches, start), nil
}

// matchResponse assembles a pair-scoped answer — ServeMatch's, and the
// FinalMatch line of a pair stream — from the alignment and each type's
// match in its order.
func (s *Session) matchResponse(pair wiki.LanguagePair, types [][2]string, matches []*typeMatch, start time.Time) *protocol.MatchResponse {
	resp := &protocol.MatchResponse{
		Pair:      pair.String(),
		Types:     cloneTypes(types),
		ElapsedMS: msSince(start),
		Cache:     s.CacheStats(),
	}
	for _, tm := range matches {
		resp.Results = append(resp.Results, tm.dto(0))
	}
	return resp
}

// ServeStream runs a MatchRequest with streamed progress: pair-scoped
// requests emit one Type line per finished entity type and close with a
// FinalMatch line; all-pairs requests emit one Pair line per finished
// language pair and close with a FinalAll line. The channel is buffered
// for the whole run, so an abandoned consumer never strands the
// workers; after a cancellation, Error lines record the work it cut
// short and the final line is withheld. Single-type requests cannot
// stream.
func (s *Session) ServeStream(ctx context.Context, req protocol.MatchRequest) (<-chan protocol.StreamLine, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.Type != "" {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "single-type requests cannot stream; use /v1/match")
	}
	if r.All {
		return s.StreamAll(ctx, r)
	}
	start := time.Now()
	pd, updates, err := s.streamWith(ctx, r.Pair, s.matcherFor(r.Overrides))
	if err != nil {
		return nil, protocol.FromErr(err)
	}
	return s.relayPairStream(r.Pair, pd.types, start, updates), nil
}

// relayPairStream translates the session's TypeUpdate stream into
// protocol lines, filling each type's slot by its Index, and closes with
// the FinalMatch answer when every type completed. The output channel is
// buffered for the whole stream.
func (s *Session) relayPairStream(pair wiki.LanguagePair, types [][2]string, start time.Time, updates <-chan TypeUpdate) <-chan protocol.StreamLine {
	out := make(chan protocol.StreamLine, len(types)+1)
	go func() {
		defer close(out)
		matches := make([]*typeMatch, len(types))
		done, aligned := 0, 0
		for u := range updates {
			done++
			line := protocol.StreamLine{Done: done, Total: u.Total}
			if u.Err != nil {
				line.Error = protocol.FromErr(u.Err)
			} else {
				matches[u.Index] = u.match
				aligned++
				dto := u.match.dto(0)
				line.Type = &dto
			}
			out <- line
		}
		// A failed type, or one a cancellation skipped, withholds the final line.
		if aligned < len(types) {
			return
		}
		out <- protocol.StreamLine{Done: done, Total: len(types), FinalMatch: s.matchResponse(pair, types, matches, start)}
	}()
	return out
}

// ServeCorpus snapshots the corpus, its fingerprint, the cache and the
// parameters — the body of GET /v1/corpus.
func (s *Session) ServeCorpus(context.Context) (*protocol.StatsResponse, error) {
	c := s.Corpus()
	return &protocol.StatsResponse{
		Corpus:      c.Stats(),
		Fingerprint: protocol.FormatFingerprint(c.Fingerprint()),
		Cache:       s.CacheStats(),
		Config:      s.Config().Params,
	}, nil
}

// ServeInvalidate drops the cached artifacts of the request's language
// ("" = all) and reports how many pair and type entries went.
func (s *Session) ServeInvalidate(_ context.Context, req protocol.InvalidateRequest) (*protocol.InvalidateResponse, error) {
	lang, err := req.Validate()
	if err != nil {
		return nil, err
	}
	pairs, types := s.invalidate(lang)
	return &protocol.InvalidateResponse{Dropped: pairs + types, Pairs: pairs, Types: types}, nil
}

// DeltaBody is ServeDelta as the Backend returns it.
func (s *Session) DeltaBody(ctx context.Context, req protocol.DeltaRequest) (any, error) {
	return s.ServeDelta(ctx, req)
}

// HealthBody answers GET /v1/healthz: uptime since started, the
// snapshot the session was restored from, and cache stats.
func (s *Session) HealthBody(_ context.Context, started time.Time) (any, error) {
	h := protocol.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(started).Seconds(),
		Cache:         s.CacheStats(),
	}
	if at, ok := s.SnapshotTime(); ok {
		h.Snapshot.Loaded = true
		h.Snapshot.CreatedAt = at.UTC().Format(time.RFC3339Nano)
		h.Snapshot.AgeSeconds = time.Since(at).Seconds()
	}
	return h, nil
}

// MetricsBody answers GET /v1/metrics with the middleware's own
// counters; a single binary has nothing to add to them.
func (s *Session) MetricsBody(_ context.Context, stack protocol.Metrics) (any, error) {
	return stack, nil
}

// matcherFor resolves the matcher a request runs with: the session's
// own for override-free requests, a throwaway matcher with the
// overridden thresholds otherwise. Overrides never reach artifact
// construction, so both share the session's cache.
func (s *Session) matcherFor(o protocol.Overrides) *core.Matcher {
	if o.Empty() {
		return s.m
	}
	return core.NewMatcher(core.Config{Params: o.Apply(s.Config().Params)})
}

// counterpartType resolves the aligned counterpart of a single-type
// request's source type, or a CodeNotFound error.
func (s *Session) counterpartType(ctx context.Context, r protocol.Resolved) (string, error) {
	types, err := s.Types(ctx, r.Pair)
	if err != nil {
		return "", protocol.FromErr(err)
	}
	for _, tp := range types {
		if tp[0] == r.Type {
			return tp[1], nil
		}
	}
	return "", protocol.Errorf(protocol.CodeNotFound, "no matched entity type %q for pair %s", r.Type, r.Pair)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
