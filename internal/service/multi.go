package service

import (
	"context"

	"repro/internal/audit"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// MatchAll runs the all-pairs multilingual batch over every language
// edition of the session's corpus: it plans the pair DAG (pivot through
// opts.Hub by default, or direct all-pairs), matches the pairs on a
// bounded worker pool, and merges the pairwise correspondences into
// cross-language attribute clusters. The batch runs over this session's
// artifact cache, so in pivot mode the hub-side artifacts are built once
// and shared across pairs, and a batch warms the cache for later
// pairwise calls (and vice versa). Per-pair failures are recorded in the
// result's outcomes without aborting the batch.
func (s *Session) MatchAll(ctx context.Context, opts multi.Options) (*multi.BatchResult, error) {
	return multi.Run(ctx, s, s.Corpus().Languages(), opts)
}

// MatchAllStream is MatchAll with per-pair progress: the channel
// delivers one update per finished pair (completion order) and a final
// update carrying the full BatchResult, then closes. The channel is
// buffered for the whole batch, so an abandoned consumer never strands
// the workers.
func (s *Session) MatchAllStream(ctx context.Context, opts multi.Options) (<-chan multi.Update, error) {
	return multi.Stream(ctx, s, s.Corpus().Languages(), opts)
}

// sessionBatch is the session's BatchSource: its corpus languages,
// its artifact cache as the pair matcher, and audit.Run over its
// corpus as the cluster audit.
type sessionBatch struct{ s *Session }

// Languages implements BatchSource.
func (b sessionBatch) Languages(context.Context) ([]wiki.Language, error) {
	return b.s.Corpus().Languages(), nil
}

// PairMatcher implements BatchSource: pairs run through the session's
// artifact cache on GOMAXPROCS workers.
func (b sessionBatch) PairMatcher(o protocol.Overrides) BatchMatcher {
	return BatchMatcher{PairMatcher: pairMatcher{b.s, b.s.matcherFor(o)}, Cache: b.s.CacheStats}
}

// AuditClusters implements BatchSource: it compares every cross-linked
// entity's values across the request's clusters, then applies the
// request's pair filter and limit.
func (b sessionBatch) AuditClusters(_ context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	report := audit.Run(b.s.Corpus(), r.Clusters, audit.Options{MinSeverity: r.MinSev})
	return &protocol.AuditResponse{
		Entities: report.Entities,
		Compared: report.Compared,
		Findings: findingDTOs(filterFindings(report.Findings, r)),
		Cache:    b.s.CacheStats(),
	}, nil
}
