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
		Config:      s.cfg,
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
// served. The session's configuration starts from the snapshot's and
// applies opts on top; options that would change how the persisted
// artifacts were built (dictionary use, LSI rank, SVD path) are rejected
// with a store.ConfigMismatchError, while pure matching thresholds
// (Tsim, TLSI, TEg, the ablation switches of Algorithm 1) may differ
// freely: snapshots hold no alignments, which the restored session
// computes (and memoizes) under its own configuration.
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
	snap.FilterPairs(keep)
	if fp := c.Fingerprint(); fp != snap.Fingerprint {
		return nil, &store.FingerprintError{Snapshot: snap.Fingerprint, Corpus: fp}
	}
	cfg := snap.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := checkArtifactConfig(snap.Config, cfg); err != nil {
		return nil, err
	}

	s := &Session{
		cfg:          cfg,
		m:            core.NewMatcher(cfg),
		eng:          artifact.NewEngine(),
		snapshotTime: snap.CreatedAt,
	}
	s.state.Store(&sessionState{corpus: c})
	for _, p := range snap.Pairs {
		pd := &pairData{types: p.Types, dict: p.Dict}
		if pd.types == nil {
			// Preserve the cache invariant: a nil alignment is the
			// compute-it sentinel, an empty one is a cached fact.
			pd.types = [][2]string{}
		}
		s.eng.Seed(artifact.PairKey(p.Pair), pd)
	}
	for _, t := range snap.Types {
		s.eng.Seed(artifact.TypeKey(t.Pair, t.TypeA, t.TypeB),
			&typeNode{art: &core.TypeArtifacts{TD: t.TD, LSI: t.LSI}})
	}
	return s, nil
}

// checkArtifactConfig rejects restores whose effective configuration
// diverges from the snapshot's on any field that shaped the persisted
// artifacts.
func checkArtifactConfig(built, want core.Config) error {
	switch {
	case built.NoDictionary != want.NoDictionary:
		return &store.ConfigMismatchError{Field: "NoDictionary"}
	case built.LSIRank != want.LSIRank:
		return &store.ConfigMismatchError{Field: "LSIRank"}
	case built.ExactSVD != want.ExactSVD:
		return &store.ConfigMismatchError{Field: "ExactSVD"}
	}
	return nil
}
