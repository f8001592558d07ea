package service

import (
	"io"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wiki"
)

// Save serializes the session's completed artifact cache — per-pair
// dictionaries and entity-type alignments, per-type similarity
// workspaces and LSI models — as a versioned snapshot keyed by the
// corpus fingerprint. The engine exports only completed, successful
// nodes (in-flight and failed builds are skipped), so Save is safe to
// call at any time on a live session; what lands in the snapshot is
// exactly what a restored session will serve. Section content and
// order are canonical (the same cache contents always produce the same
// section bytes); only the header's creation timestamp varies between
// saves.
//
// Save streams to w; callers persisting to disk should wrap it in
// store.WriteFile for an atomic temp-file-and-rename write.
func (s *Session) Save(w io.Writer) error {
	// Hold deltaMu so the fingerprint and the exported graph belong to
	// the same corpus generation: ApplyDelta swaps both under this lock.
	s.deltaMu.Lock()
	st := s.state.Load()
	nodes := s.eng.Export()
	s.deltaMu.Unlock()

	snap := &store.Snapshot{
		Fingerprint: st.corpus.Fingerprint(),
		CreatedAt:   time.Now(),
		Config:      s.Config().Params,
	}
	for _, n := range nodes {
		switch n.Key.Kind {
		case artifact.KindPair:
			pd := n.Value.(*pairData)
			snap.Pairs = append(snap.Pairs, store.PairArtifacts{
				Pair:  n.Key.Pair,
				Types: pd.types,
				Dict:  pd.dict,
			})
		case artifact.KindType:
			// Only the artifacts persist; the memoized alignment is
			// recomputed on first use after a restore.
			art := n.Value.(*typeNode).art
			snap.Types = append(snap.Types, store.TypeArtifacts{
				Pair:  n.Key.Pair,
				TypeA: n.Key.TypeA,
				TypeB: n.Key.TypeB,
				TD:    art.TD,
				LSI:   art.LSI,
			})
		}
	}

	// store.Write sorts the sections into their canonical order itself.
	return store.Write(w, snap)
}

// Restore builds a warm session from a snapshot written by Save. The
// snapshot must match the corpus (by fingerprint) or Restore fails with
// a store.FingerprintError — stale artifacts are rejected at load, never
// served. The session's parameters start from the snapshot's and apply
// opts on top. The LSI rank shaped the persisted artifacts, so a
// different one is rejected with a store.ConfigMismatchError, as is a
// pair section without a translation dictionary (the trace a snapshot
// of the NoDictionary ablation leaves). The thresholds may differ
// freely: snapshots hold no alignments, which the restored session
// computes (and memoizes) under its own parameters.
//
// Every artifact in the snapshot is seeded into the engine as a
// completed node: the first Match against a restored pair counts as
// cache hits in CacheStats and returns a result byte-identical to a
// cold build's.
func Restore(c *wiki.Corpus, r io.Reader, opts ...Option) (*Session, error) {
	return RestoreFiltered(c, r, nil, opts...)
}

// RestoreFiltered is Restore for one shard of a fleet: artifacts whose
// language pair keep rejects are dropped before seeding, so the replica
// warm-loads only the slice of the snapshot it owns. The corpus — and
// therefore the fingerprint check — stays the full one: every shard
// serves the whole corpus's statistics and deltas, only the artifact
// cache is sharded. A nil keep restores everything.
func RestoreFiltered(c *wiki.Corpus, r io.Reader, keep func(wiki.LanguagePair) bool, opts ...Option) (*Session, error) {
	snap, err := store.Read(r)
	if err != nil {
		return nil, err
	}
	if fp := c.Fingerprint(); fp != snap.Fingerprint {
		return nil, &store.FingerprintError{Snapshot: snap.Fingerprint, Corpus: fp}
	}
	s := newSession(c, snap.Config, opts)
	if s.Config().LSIRank != snap.Config.LSIRank {
		return nil, &store.ConfigMismatchError{Field: "LSIRank"}
	}
	s.snapshotTime = snap.CreatedAt
	snap.FilterPairs(keep)
	for _, p := range snap.Pairs {
		if p.Dict == nil {
			return nil, &store.ConfigMismatchError{Field: "dictionary"}
		}
		s.eng.Seed(artifact.PairKey(p.Pair), &pairData{types: p.Types, dict: p.Dict})
	}
	for _, t := range snap.Types {
		s.eng.Seed(artifact.TypeKey(t.Pair, t.TypeA, t.TypeB),
			&typeNode{art: &core.TypeArtifacts{TD: t.TD, LSI: t.LSI}})
	}
	return s, nil
}
