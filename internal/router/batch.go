package router

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/wiki"
)

// fleetBatch is the fleet's service.BatchSource: the batch routes run
// the single binary's own code, and the fleet supplies only what it
// does differently. The router holds no corpus, but every shard holds
// the full one — only artifacts are sharded — so the language set comes
// from the corpus stats the shards agree on, each planned pair is one
// /v1/match on its owning shard's warm cache, and the value comparison
// of the merged clusters runs on one shard, as an ordinary AuditRequest
// with Clusters set.
type fleetBatch struct{ rt *Router }

// Languages implements service.BatchSource: the language set of the
// corpus the answering shards agree on (ServeCorpus), cached until a
// delta lands.
func (f fleetBatch) Languages(ctx context.Context) ([]wiki.Language, error) {
	rt := f.rt
	rt.langMu.Lock()
	cached := rt.langs
	rt.langMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	stats, err := rt.ServeCorpus(ctx)
	if err != nil {
		return nil, err
	}
	rt.langMu.Lock()
	rt.langs = stats.Corpus.Languages
	rt.langMu.Unlock()
	return stats.Corpus.Languages, nil
}

// PairMatcher implements service.BatchSource. A batch runs one worker
// per planned pair (multi.StreamPlan caps workers at the plan size):
// router-side pair work is network-bound waiting, not CPU, and the
// shards bound their own compute. The answer reports the cache totals
// of the shards the batch reached.
func (f fleetBatch) PairMatcher(o protocol.Overrides) service.BatchMatcher {
	fm := &fleetMatcher{
		rt:    f.rt,
		base:  protocol.MatchRequest{TSim: o.TSim, TLSI: o.TLSI, TEg: o.TEg},
		cache: make(map[int]protocol.CacheStats),
	}
	return service.BatchMatcher{PairMatcher: fm, Cache: fm.cacheTotals, Workers: math.MaxInt}
}

// AuditClusters implements service.BatchSource: any shard can audit
// pre-merged clusters, since all hold the full corpus.
func (f fleetBatch) AuditClusters(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error) {
	return onAnyShard(ctx, f.rt, func(sh *shard) (*protocol.AuditResponse, error) { return sh.c.Audit(ctx, req) })
}

// fleetMatcher adapts the fleet to multi.PairMatcher: each pair is one
// /v1/match against its owning shard, reconstructed into the core
// result the cluster builder consumes. It also collects each shard's
// latest cache-stats snapshot, so the merged response can report fleet
// cache totals without extra round trips.
type fleetMatcher struct {
	rt *Router
	// base carries only the threshold overrides; batch fields
	// (all/mode/hub/workers) stay router-side.
	base protocol.MatchRequest

	mu    sync.Mutex
	cache map[int]protocol.CacheStats
}

// Match implements multi.PairMatcher over the fleet.
func (f *fleetMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	req := f.base
	req.Pair = pair.String()
	sh := f.rt.owner(pair)
	resp, err := sh.c.Match(ctx, req)
	if err != nil {
		return nil, f.rt.shardErr(ctx, sh, err)
	}
	f.mu.Lock()
	f.cache[sh.index] = resp.Cache
	f.mu.Unlock()
	return resp.Result()
}

// cacheTotals sums the latest cache snapshot seen from each shard
// during the batch — the fleet-wide equivalent of a session's
// CacheStats.
func (f *fleetMatcher) cacheTotals() protocol.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out protocol.CacheStats
	for _, cs := range f.cache {
		out.Add(cs)
	}
	return out
}

// onAnyShard calls call on each shard in turn until one answers.
// Structured non-retryable errors (validation) pass through
// immediately; transport-class failures try the next shard.
func onAnyShard[T any](ctx context.Context, rt *Router, call func(*shard) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for i := range rt.shards {
		sh := &rt.shards[i]
		v, err := call(sh)
		if err == nil {
			return v, nil
		}
		var pe *protocol.Error
		if errors.As(err, &pe) && !pe.Retryable {
			return zero, pe
		}
		lastErr = rt.shardErr(ctx, sh, err)
	}
	return zero, lastErr
}
