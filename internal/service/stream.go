package service

import (
	"context"

	"repro/internal/core"
	"repro/internal/wiki"
)

// TypeUpdate is one streamed per-type outcome: either a completed
// TypeResult or the error that stopped that type (in practice only the
// context's error).
type TypeUpdate struct {
	// Index is the type's position in the pair's sorted entity-type
	// alignment; Total is the alignment's size.
	Index, Total int
	TypeA, TypeB string
	Result       *core.TypeResult
	Err          error

	// match carries Result with its wire correspondences for the
	// protocol relay.
	match *typeMatch
}

// MatchStream runs WikiMatch for a language pair and emits each type's
// result on the returned channel as soon as that type completes —
// completion order, not alignment order. The channel is buffered for the
// whole alignment, so a consumer may stop reading (or never read) at any
// point without leaking the workers; cancelling ctx additionally stops
// types that have not started yet. The channel is closed once every type
// has been emitted or skipped; after a cancellation the consumer
// observes ctx.Err() (and possibly a final TypeUpdate carrying it).
// Artifacts and type alignments are cached exactly as in Match, so a
// stream warms the cache for later calls and vice versa; the streamed
// TypeResults are shared and read-only.
func (s *Session) MatchStream(ctx context.Context, pair wiki.LanguagePair) (<-chan TypeUpdate, error) {
	_, out, err := s.streamWith(ctx, pair, s.m)
	return out, err
}

// streamWith is MatchStream with an explicit matcher (see matchWith). It
// runs alignTypes on its own goroutine and also returns the pair's
// cached artifacts, which are shared and read-only.
func (s *Session) streamWith(ctx context.Context, pair wiki.LanguagePair, m *core.Matcher) (*pairData, <-chan TypeUpdate, error) {
	st := s.state.Load()
	pd, err := s.pairArtifacts(ctx, st, pair)
	if err != nil {
		return nil, nil, err
	}
	types := pd.types
	// Each type emits at most one update, so this buffer guarantees no
	// send ever blocks — abandoned streams cannot strand the pool.
	out := make(chan TypeUpdate, len(types))
	go func() {
		defer close(out)
		s.alignTypes(ctx, st, pair, pd, m, func(i int, tm *typeMatch, err error) {
			u := TypeUpdate{Index: i, Total: len(types), TypeA: types[i][0], TypeB: types[i][1], Err: err, match: tm}
			if err == nil {
				u.Result = tm.tr
			}
			out <- u
		})
	}()
	return pd, out, nil
}
