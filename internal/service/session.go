// Package service exposes WikiMatch as a long-lived matching service.
// A Session wraps one corpus and one matcher configuration and serves
// as a thin facade over the internal/artifact engine — the keyed
// dependency graph that caches per-pair translation dictionaries and
// entity-type alignments and per-type similarity workspaces
// (sim.TypeData) and LSI models — so repeated and overlapping match
// calls reuse the expensive construction work instead of recomputing
// it. All methods are safe for concurrent use; identical artifacts
// requested concurrently are built exactly once (single-flight), and
// every match entrypoint honours context cancellation down to the chunk
// boundaries of the pair-scoring hot path.
//
// Each type node also memoizes Algorithm 1's output for that type under
// the session's configuration (see memo.go), so a warm Match is a lookup
// and returns a result identical to a cold one. Requests that override
// the matching thresholds still run the alignment themselves over the
// cached artifacts; they neither read nor fill the memo.
//
// The corpus itself is mutable through ApplyDelta (see delta.go): the
// session swaps in an edited corpus copy-on-write and invalidates
// exactly the graph nodes the edit dirtied, so a re-match after a
// single-article edit rebuilds only that article's type artifacts.
package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// Session is a long-lived matching service over one corpus. Create it
// with New; the zero value is not usable.
type Session struct {
	cfg core.Config
	m   *core.Matcher
	eng *artifact.Engine

	// state is the session's current (corpus, engine epoch) pair,
	// swapped atomically by ApplyDelta. Every request captures it once
	// and runs entirely against that snapshot: a request racing a delta
	// is consistently pre-delta or post-delta, never a mix.
	state atomic.Pointer[sessionState]

	// deltaMu serializes corpus mutations (and Save's consistent read
	// of corpus + graph); the artifact engine has its own lock.
	deltaMu sync.Mutex

	// snapshotTime is the creation time of the snapshot this session
	// was restored from (zero for cold sessions). Set once before the
	// session is shared; read-only after.
	snapshotTime time.Time

	// deltaTestHook, when non-nil, runs between ApplyDelta's diff phase
	// and its commit — a test seam for injecting cache fills into that
	// window. Set only by tests, before the session is shared.
	deltaTestHook func()
}

// sessionState pins one corpus generation to the engine epoch it was
// current at.
type sessionState struct {
	corpus *wiki.Corpus
	epoch  uint64
}

// pairData is the pair-level artifact node's value: the entity-type
// alignment and the translation dictionary.
type pairData struct {
	types [][2]string
	dict  *dict.Dictionary
}

// New creates a session over the corpus. Options adjust the matcher
// configuration starting from core.DefaultConfig (the paper's thresholds).
func New(c *wiki.Corpus, opts ...Option) *Session {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Session{
		cfg: cfg,
		m:   core.NewMatcher(cfg),
		eng: artifact.NewEngine(),
	}
	s.state.Store(&sessionState{corpus: c})
	return s
}

// Config returns the session's matcher configuration.
func (s *Session) Config() core.Config { return s.cfg }

// Corpus returns the corpus the session currently serves.
func (s *Session) Corpus() *wiki.Corpus { return s.state.Load().corpus }

// Match runs WikiMatch end to end for a language pair, reusing any cached
// artifacts and caching whatever it has to build. The result is identical
// to a cold core.Matcher.Match run with the same configuration.
//
// Each type's alignment is memoized on its type node, so a warm Match is
// a lookup: the returned Result is fresh, but its PerType values are
// shared with every other request served from the same cache and must be
// treated as read-only.
func (s *Session) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	res, _, err := s.matchWith(ctx, pair, s.m)
	return res, err
}

// matchWith is Match with an explicit matcher, the seam that lets a
// protocol request override matching thresholds per request: m aligns,
// while artifact construction (and the cache key space) stays bound to
// the session's own configuration. Thresholds do not shape artifacts,
// so any threshold-overridden matcher reuses the shared cache safely.
// Alongside the result it returns each type's alignment in Types order,
// for callers that serve the wire correspondences.
func (s *Session) matchWith(ctx context.Context, pair wiki.LanguagePair, m *core.Matcher) (*core.Result, []*typeMatch, error) {
	st := s.state.Load()
	pd, err := s.pairArtifacts(ctx, st, pair)
	if err != nil {
		return nil, nil, err
	}
	// Copy the cached alignment: MatchCtx hands Types to the caller via
	// Result.Types, and a caller reordering its result must not corrupt
	// the shared cache entry.
	types := make([][2]string, len(pd.types))
	copy(types, pd.types)
	// Take what the cache already holds on this goroutine: a type whose
	// node is cached and memoized needs no worker, so a warm pair is a
	// lookup and MatchCtx schedules nothing. Only the rest go to Align,
	// which reuses the nodes found here.
	nodes := make([]*typeNode, len(types))
	matches := make([]*typeMatch, len(types))
	aligned := make([]*core.TypeResult, len(types))
	for i, tp := range types {
		v, ok := s.eng.Lookup(artifact.TypeKey(pair, tp[0], tp[1]), st.epoch)
		if !ok {
			continue
		}
		nodes[i] = v.(*typeNode)
		if m == s.m {
			if matches[i] = nodes[i].memo(); matches[i] != nil {
				aligned[i] = matches[i].tr
			}
		}
	}
	art := &core.MatchArtifacts{
		Types:    types,
		Dict:     pd.dict,
		HaveDict: true,
		Aligned:  aligned,
		Align: func(ctx context.Context, i int) (*core.TypeResult, error) {
			node := nodes[i]
			if node == nil {
				var err error
				if node, err = s.typeNode(ctx, st, pair, types[i][0], types[i][1], pd.dict); err != nil {
					return nil, err
				}
			}
			tm, err := s.alignNode(ctx, st, pair, pd, node, types[i][0], types[i][1], m)
			if err != nil {
				return nil, err
			}
			matches[i] = tm
			return tm.tr, nil
		},
	}
	res, err := m.MatchCtx(ctx, st.corpus, pair, art)
	if err != nil {
		return nil, nil, err
	}
	return res, matches, nil
}

// MatchType aligns one entity-type pair, reusing cached artifacts and the
// type's memoized alignment. The returned TypeResult is shared and
// read-only, as in Match.
func (s *Session) MatchType(ctx context.Context, pair wiki.LanguagePair, typeA, typeB string) (*core.TypeResult, error) {
	tm, err := s.matchTypeWith(ctx, pair, typeA, typeB, s.m)
	if err != nil {
		return nil, err
	}
	return tm.tr, nil
}

// matchTypeWith is MatchType with an explicit matcher (see matchWith).
func (s *Session) matchTypeWith(ctx context.Context, pair wiki.LanguagePair, typeA, typeB string, m *core.Matcher) (*typeMatch, error) {
	st := s.state.Load()
	pd, err := s.pairArtifacts(ctx, st, pair)
	if err != nil {
		return nil, err
	}
	return s.alignType(ctx, st, pair, pd, typeA, typeB, m)
}

// alignType aligns one type pair with matcher m. The session's own
// matcher goes through the type node's memo; a threshold-override
// matcher computes a fresh result and leaves the memo alone, so the memo
// only ever holds the session configuration's result.
func (s *Session) alignType(ctx context.Context, st *sessionState, pair wiki.LanguagePair, pd *pairData, typeA, typeB string, m *core.Matcher) (*typeMatch, error) {
	node, err := s.typeNode(ctx, st, pair, typeA, typeB, pd.dict)
	if err != nil {
		return nil, err
	}
	return s.alignNode(ctx, st, pair, pd, node, typeA, typeB, m)
}

// alignNode is alignType on a type node already at hand.
func (s *Session) alignNode(ctx context.Context, st *sessionState, pair wiki.LanguagePair, pd *pairData, node *typeNode, typeA, typeB string, m *core.Matcher) (*typeMatch, error) {
	align := func(ctx context.Context) (*core.TypeResult, error) {
		return m.MatchTypeCtx(ctx, st.corpus, pair, typeA, typeB, pd.dict, node.art)
	}
	if m == s.m {
		return node.matched(ctx, align)
	}
	tr, err := align(ctx)
	if err != nil {
		return nil, err
	}
	return newTypeMatch(tr), nil
}

// Types returns the entity-type alignment for a pair (cached after the
// first call).
func (s *Session) Types(ctx context.Context, pair wiki.LanguagePair) ([][2]string, error) {
	pd, err := s.pairArtifacts(ctx, s.state.Load(), pair)
	if err != nil {
		return nil, err
	}
	out := make([][2]string, len(pd.types))
	copy(out, pd.types)
	return out, nil
}

// Dictionary returns the pair's cached translation dictionary (nil when
// the session runs the NoDictionary ablation).
func (s *Session) Dictionary(ctx context.Context, pair wiki.LanguagePair) (*dict.Dictionary, error) {
	pd, err := s.pairArtifacts(ctx, s.state.Load(), pair)
	if err != nil {
		return nil, err
	}
	return pd.dict, nil
}

// Invalidate drops every cached artifact that involves the language —
// pair nodes whose pair contains it and, transitively, the type nodes
// built under those pairs — and returns how many entries were dropped.
// The zero Language drops the whole cache. In-flight builds are
// orphaned: they complete into their discarded entries, waiters retry,
// and the next request rebuilds.
func (s *Session) Invalidate(lang wiki.Language) int {
	pairs, types := s.InvalidateDetail(lang)
	return pairs + types
}

// InvalidateDetail is Invalidate with the per-kind breakdown the v1
// wire response reports: how many pair and how many type entries were
// dropped.
func (s *Session) InvalidateDetail(lang wiki.Language) (pairs, types int) {
	var dropped map[artifact.Kind]int
	if lang == "" {
		dropped = s.eng.InvalidateAll()
	} else {
		dropped = s.eng.Invalidate(artifact.CorpusKey(lang))
	}
	return dropped[artifact.KindPair], dropped[artifact.KindType]
}

// CacheStats is a snapshot of the artifact cache. RestoredPairs and
// RestoredTypes count the entries a warm start seeded from a persisted
// snapshot (service.Restore); they stay 0 for cold sessions, making
// warm-started processes observable through /v1/corpus and /v1/healthz.
// The wire form lives in internal/protocol; this alias keeps the
// session API self-contained.
type CacheStats = protocol.CacheStats

// CacheStats reports cache occupancy, the hit/miss/failure counters
// accumulated over the session's lifetime, and how many entries were
// restored from a snapshot at warm start. Misses count completed
// builds only; cancelled or failed builds land in Failures.
func (s *Session) CacheStats() CacheStats {
	es := s.eng.Stats()
	return CacheStats{
		PairEntries:   es.Entries[artifact.KindPair],
		TypeEntries:   es.Entries[artifact.KindType],
		Hits:          es.Hits,
		Misses:        es.Misses,
		Failures:      es.Failures,
		RestoredPairs: es.Restored[artifact.KindPair],
		RestoredTypes: es.Restored[artifact.KindType],
	}
}

// SnapshotTime returns the creation time of the snapshot this session
// was restored from, and whether there was one (false for cold-built
// sessions). wikimatchd's /healthz derives the snapshot age from it.
func (s *Session) SnapshotTime() (time.Time, bool) {
	return s.snapshotTime, !s.snapshotTime.IsZero()
}

// pairArtifacts returns the pair-level artifacts, building them once per
// pair through the engine. Concurrent callers for the same pair share
// one build; if the builder's context is cancelled, the entry is
// discarded and surviving waiters retry with their own contexts.
func (s *Session) pairArtifacts(ctx context.Context, st *sessionState, pair wiki.LanguagePair) (*pairData, error) {
	v, err := s.eng.Get(ctx, artifact.PairKey(pair), st.epoch, func(ctx context.Context) (any, error) {
		return s.buildPairData(ctx, st.corpus, pair)
	})
	if err != nil {
		return nil, err
	}
	return v.(*pairData), nil
}

// buildPairData builds one pair node's value from the given corpus
// generation.
func (s *Session) buildPairData(ctx context.Context, c *wiki.Corpus, pair wiki.LanguagePair) (*pairData, error) {
	// The corpus-wide entity-type scan is the one build stage that is not
	// itself cancellable, so don't even start it for a dead context (a
	// disconnected client on a cold pair).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pd := &pairData{types: core.MatchEntityTypes(c, pair)}
	if pd.types == nil {
		// Keep the cached alignment non-nil: nil is MatchArtifacts'
		// compute-it sentinel, and an empty alignment must still count
		// as cached on warm calls.
		pd.types = [][2]string{}
	}
	if !s.cfg.NoDictionary {
		var err error
		if pd.dict, err = dict.BuildCtx(ctx, c, pair.A, pair.B); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pd, nil
}

// typeNode returns one type pair's node value, building its artifacts
// once through the engine.
func (s *Session) typeNode(ctx context.Context, st *sessionState, pair wiki.LanguagePair, typeA, typeB string, d *dict.Dictionary) (*typeNode, error) {
	v, err := s.eng.Get(ctx, artifact.TypeKey(pair, typeA, typeB), st.epoch, func(ctx context.Context) (any, error) {
		art, err := s.m.BuildTypeArtifacts(ctx, st.corpus, pair, typeA, typeB, d)
		if err != nil {
			return nil, err
		}
		return &typeNode{art: art}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*typeNode), nil
}
