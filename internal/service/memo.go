package service

import (
	"context"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/protocol"
)

// typeNode is the type-level artifact node's value: the type pair's
// similarity workspace and LSI model, plus a slot memoizing their
// alignment under the session's own matcher. A type's result is a pure
// function of these artifacts and the matcher configuration, so the
// first request that aligns the type with the session's matcher fills
// the slot and every later one reuses it. The slot lives and dies with
// the node: a delta or Invalidate that drops the node drops the memo
// with it, and snapshots persist only the artifacts.
type typeNode struct {
	art *core.TypeArtifacts

	mu     sync.Mutex
	match  *typeMatch    // the memoized alignment, once computed
	flight chan struct{} // non-nil while a computation runs; closed when it ends
}

// matched returns the node's memoized alignment, computing it with
// align on first use. Concurrent callers share one computation. A
// computation that fails (in practice: its context was cancelled) is
// not memoized, and waiters then retry with their own contexts, as the
// artifact engine's do.
func (n *typeNode) matched(ctx context.Context, align func(context.Context) (*core.TypeResult, error)) (*typeMatch, error) {
	for {
		n.mu.Lock()
		if tm := n.match; tm != nil {
			n.mu.Unlock()
			// A hit does no work, but a caller whose context is done still
			// gets its error, as from every other match entrypoint.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return tm, nil
		}
		if wait := n.flight; wait != nil {
			n.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		done := make(chan struct{})
		n.flight = done
		n.mu.Unlock()

		tr, err := align(ctx)
		var tm *typeMatch
		if err == nil {
			tm = newTypeMatch(tr)
		}
		n.mu.Lock()
		n.match, n.flight = tm, nil
		n.mu.Unlock()
		close(done)
		return tm, err
	}
}

// memo returns the memoized alignment, or nil while none is.
func (n *typeNode) memo() *typeMatch {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.match
}

// typeMatch is one type's alignment together with its wire
// correspondences — the derived pairs sorted by (a, b), each with its
// confidence — computed once, so serving a memoized result needs no map
// iteration or sort.
type typeMatch struct {
	tr   *core.TypeResult
	corr []protocol.Correspondence
}

func newTypeMatch(tr *core.TypeResult) *typeMatch {
	tm := &typeMatch{tr: tr}
	for _, p := range tr.CrossPairsSorted() {
		tm.corr = append(tm.corr, protocol.Correspondence{
			A: p[0], B: p[1], Confidence: tr.Confidence(p[0], p[1]),
		})
	}
	return tm
}

// dto flattens the alignment for the wire. The correspondences are
// copied: a memoized list is shared by every request that hits it.
func (tm *typeMatch) dto(elapsedMS float64) protocol.TypeResult {
	return protocol.TypeResult{
		TypeA:           tm.tr.TypeA,
		TypeB:           tm.tr.TypeB,
		Attributes:      len(tm.tr.TD.Attrs),
		Candidates:      len(tm.tr.Candidates),
		Correspondences: slices.Clone(tm.corr),
		ElapsedMS:       elapsedMS,
	}
}
