package service

import (
	"context"
	"errors"
	"maps"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// DeltaPairEffect reports what one corpus delta did to one affected
// cached pair.
type DeltaPairEffect struct {
	Pair wiki.LanguagePair
	// Rebuilt reports that the pair-level artifacts (dictionary or
	// entity-type alignment) changed: the old node and every type node
	// under it were dropped, and the fresh pair build was seeded in
	// place so the next match does not pay for it again.
	Rebuilt bool
	// DroppedTypes lists the type nodes invalidated under this pair,
	// sorted.
	DroppedTypes [][2]string
}

// DeltaResult summarizes an ApplyDelta call: what changed in the
// corpus and which artifact-graph nodes were invalidated.
type DeltaResult struct {
	Added, Updated, Removed int
	// Fingerprint is the edited corpus's fingerprint — the key a
	// post-delta snapshot will carry.
	Fingerprint uint64
	// Languages lists the language editions the delta touched, sorted.
	Languages []wiki.Language
	// Pairs describes every affected pair that was cached when the
	// delta's diff phase began, sorted by pair. A pair cached
	// concurrently with the delta is dropped and counted in
	// DroppedPairs/DroppedTypes but carries no per-pair effect.
	Pairs []DeltaPairEffect
	// DroppedPairs/DroppedTypes total the invalidated graph nodes
	// (rebuilt pairs count: their old node was dropped).
	DroppedPairs, DroppedTypes int
}

// ApplyDelta applies a batch of corpus edits and invalidates exactly
// the artifact-graph nodes the edits dirtied. The corpus is swapped
// copy-on-write: in-flight requests keep matching against the corpus
// generation they started on (their late builds stay private to that
// generation), while every request that starts after ApplyDelta
// returns sees the edited corpus.
//
// Invalidation is as fine-grained as the dependency graph allows. The
// pair-level artifacts (dictionary and entity-type alignment) read only
// titles, types, cross-links and which articles carry an infobox. A
// delta that changes none of these (wiki.DeltaEffect.Structural false:
// infobox value edits, the common case) keeps every cached pair node
// without rebuilding anything, and drops only the type nodes whose
// entity types lost or gained articles. For a structural delta, the
// pair-level artifacts of every cached pair containing an edited
// language, or a language its changes reach (typeReach), are rebuilt
// from the edited corpus and diffed. If they are unchanged, the pair
// node is kept and the type nodes of the edited entity types are
// dropped, or every type node of the pair when it contains a reached
// language. Otherwise the pair node is reseeded with the fresh build
// and every type node under it is dropped. A warm re-match after
// a single-article value edit therefore rebuilds only that article's
// type artifacts — every other node reports a cache hit.
//
// The graph update is atomic: no concurrent request can observe the
// new corpus paired with stale artifacts, and a delta cancelled by ctx
// before the commit leaves corpus and cache untouched.
func (s *Session) ApplyDelta(ctx context.Context, d wiki.Delta) (*DeltaResult, error) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()

	old := s.state.Load()
	newCorpus, eff, err := old.corpus.WithDelta(d)
	if err != nil {
		return nil, &deltaRejectedError{err}
	}

	// Diff phase (outside the engine lock, cancellable): decide for
	// every affected cached pair whether its pair-level artifacts
	// changed. A delta that is not structural cannot change them, so a
	// cached pair node is kept as is. Otherwise the artifacts are
	// rebuilt from the edited corpus and compared with the cached value.
	// Pair builds are deterministic per corpus, so a concurrent rebuild
	// of the same node cannot change the verdict.
	type pairPlan struct {
		pair  wiki.LanguagePair
		fresh *pairData
		equal bool
	}
	var reach map[wiki.Language]bool
	if eff.Structural {
		reach = typeReach(old.corpus, d)
	}
	touched := func(p wiki.LanguagePair) bool {
		_, a := eff.Types[p.A]
		_, b := eff.Types[p.B]
		return a || b || reach[p.A] || reach[p.B]
	}
	seen := make(map[wiki.LanguagePair]bool)
	var plans []*pairPlan
	for _, kind := range []artifact.Kind{artifact.KindPair, artifact.KindType} {
		for _, k := range s.eng.Keys(kind) {
			if seen[k.Pair] || !touched(k.Pair) {
				continue
			}
			seen[k.Pair] = true
			pl := &pairPlan{pair: k.Pair}
			plans = append(plans, pl)
			v, cached := s.eng.Value(artifact.PairKey(k.Pair))
			if cached && !eff.Structural {
				pl.equal = true
				continue
			}
			fresh, err := s.buildPairData(ctx, newCorpus, k.Pair)
			if err != nil {
				return nil, err
			}
			pl.fresh = fresh
			if cached {
				prev := v.(*pairData)
				pl.equal = alignmentsEqual(prev.types, fresh.types) && prev.dict.Equal(fresh.dict)
			}
		}
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].pair.String() < plans[j].pair.String() })
	if s.deltaTestHook != nil {
		s.deltaTestHook()
	}
	// A skipped diff never looked at ctx: a delta cancelled by now
	// still leaves corpus and cache untouched.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &DeltaResult{
		Added:       eff.Added,
		Updated:     eff.Updated,
		Removed:     eff.Removed,
		Fingerprint: newCorpus.Fingerprint(),
		Languages:   eff.Languages(),
	}

	// Commit phase: one atomic graph update. Type keys are
	// re-enumerated under the lock so nodes built during the diff phase
	// are classified too (by type name, so the verdicts still apply).
	dropped := s.eng.Apply(func(tx *artifact.Tx) {
		byPair := make(map[wiki.LanguagePair][]artifact.Key)
		for _, k := range tx.Keys(artifact.KindType) {
			byPair[k.Pair] = append(byPair[k.Pair], k)
		}
		planned := make(map[wiki.LanguagePair]bool, len(plans))
		for _, pl := range plans {
			planned[pl.pair] = true
		}
		for _, pl := range plans {
			pe := DeltaPairEffect{Pair: pl.pair}
			if pl.equal {
				all := reach[pl.pair.A] || reach[pl.pair.B]
				for _, tk := range byPair[pl.pair] {
					if all || eff.Types[pl.pair.A][tk.TypeA] || eff.Types[pl.pair.B][tk.TypeB] {
						tx.Invalidate(tk)
						pe.DroppedTypes = append(pe.DroppedTypes, [2]string{tk.TypeA, tk.TypeB})
					}
				}
			} else {
				// The pair-level artifacts changed (or the pair node was
				// in flight): drop the whole subtree and seed the fresh
				// pair build so the work done for the diff is not wasted.
				pe.Rebuilt = true
				for _, tk := range byPair[pl.pair] {
					pe.DroppedTypes = append(pe.DroppedTypes, [2]string{tk.TypeA, tk.TypeB})
				}
				tx.Invalidate(artifact.PairKey(pl.pair))
				tx.Seed(artifact.PairKey(pl.pair), pl.fresh)
			}
			sort.Slice(pe.DroppedTypes, func(i, j int) bool {
				if pe.DroppedTypes[i][0] != pe.DroppedTypes[j][0] {
					return pe.DroppedTypes[i][0] < pe.DroppedTypes[j][0]
				}
				return pe.DroppedTypes[i][1] < pe.DroppedTypes[j][1]
			})
			res.Pairs = append(res.Pairs, pe)
		}
		// Touched nodes with no plan were cached between the diff
		// enumeration and this commit: they were built from the pre-delta
		// corpus and there is no fresh build to diff them against, so drop
		// them outright — they must not survive the epoch bump. Pair
		// invalidation drops its type dependents transitively; the type
		// sweep catches type nodes whose pair node is absent or in flight.
		for _, kind := range []artifact.Kind{artifact.KindPair, artifact.KindType} {
			for _, k := range tx.Keys(kind) {
				if !planned[k.Pair] && touched(k.Pair) {
					tx.Invalidate(k)
				}
			}
		}
		s.state.Store(&sessionState{corpus: newCorpus, epoch: tx.Epoch()})
	})
	res.DroppedPairs = dropped[artifact.KindPair]
	res.DroppedTypes = dropped[artifact.KindType]
	return res, nil
}

// typeReach returns the languages in which a structural delta can
// change the type artifacts of entity types it did not edit. Outside
// the type pair's own articles, sim.BuildTypeData reads two things:
//   - Corpus.Pairs, where an article gaining or losing its infobox can
//     change the partner picked for an article linking to it;
//   - sim.CanonicalLinkKey, which keys a link-valued attribute value by
//     the English title its landing article resolves to. A changed
//     cross-link rekeys the values linking to the edited article, and,
//     when the edited article is English, the values linking to the
//     articles it links to before or after the edit.
//
// The type nodes of every pair containing a returned language are
// dropped. An addition or removal counts as an edit from or to an
// article with no infobox and no links.
func typeReach(c *wiki.Corpus, d wiki.Delta) map[wiki.Language]bool {
	reach := make(map[wiki.Language]bool)
	edit := func(lang wiki.Language, old, new *wiki.Article) {
		var oldLinks, newLinks map[wiki.Language]string
		oldBox, newBox := false, false
		if old != nil {
			oldLinks, oldBox = old.CrossLinks, old.Infobox != nil
		}
		if new != nil {
			newLinks, newBox = new.CrossLinks, new.Infobox != nil
		}
		if oldBox != newBox {
			reach[lang] = true
		}
		if maps.Equal(oldLinks, newLinks) {
			return
		}
		reach[lang] = true
		if lang == wiki.English {
			for l := range oldLinks {
				reach[l] = true
			}
			for l := range newLinks {
				reach[l] = true
			}
		}
	}
	for _, a := range d.Upserts {
		old, _ := c.Get(a.Language, a.Title)
		edit(a.Language, old, a)
	}
	for _, k := range d.Removes {
		old, _ := c.Get(k.Language, k.Title)
		edit(k.Language, old, nil)
	}
	return reach
}

// deltaRejectedError marks a corpus-validation failure from
// Corpus.WithDelta — the one ApplyDelta failure class that is the
// client's fault. It renders as the underlying error, so wire messages
// are unchanged; ServeDelta dispatches on it to pick the error code.
type deltaRejectedError struct{ err error }

func (e *deltaRejectedError) Error() string { return e.err.Error() }
func (e *deltaRejectedError) Unwrap() error { return e.err }

// alignmentsEqual compares two entity-type alignments element-wise.
func alignmentsEqual(a, b [][2]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ServeDelta answers a DeltaRequest — the typed execution path behind
// POST /v1/corpus/delta.
func (s *Session) ServeDelta(ctx context.Context, req protocol.DeltaRequest) (*protocol.DeltaResponse, error) {
	d, err := req.Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.ApplyDelta(ctx, d)
	if err != nil {
		// Only corpus-validation failures are the client's fault; diff-phase
		// build failures and cancellations keep their own codes via FromErr.
		var rejected *deltaRejectedError
		switch {
		case errors.Is(err, wiki.ErrNoSuchArticle):
			return nil, protocol.Errorf(protocol.CodeNotFound, "%v", err)
		case errors.As(err, &rejected):
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "%v", err)
		default:
			return nil, protocol.FromErr(err)
		}
	}
	resp := &protocol.DeltaResponse{
		Added:        res.Added,
		Updated:      res.Updated,
		Removed:      res.Removed,
		Fingerprint:  protocol.FormatFingerprint(res.Fingerprint),
		Languages:    []string{},
		Pairs:        []protocol.DeltaPair{},
		DroppedPairs: res.DroppedPairs,
		DroppedTypes: res.DroppedTypes,
		ElapsedMS:    msSince(start),
		Cache:        s.CacheStats(),
	}
	for _, l := range res.Languages {
		resp.Languages = append(resp.Languages, l.String())
	}
	for _, pe := range res.Pairs {
		dp := protocol.DeltaPair{Pair: pe.Pair.String(), Rebuilt: pe.Rebuilt, DroppedTypes: pe.DroppedTypes}
		if dp.DroppedTypes == nil {
			dp.DroppedTypes = [][2]string{}
		}
		resp.Pairs = append(resp.Pairs, dp)
	}
	return resp, nil
}
