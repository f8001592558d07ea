package store

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/lsi"
	"repro/internal/sim"
	"repro/internal/wiki"
)

// Snapshot is the in-memory form of one artifact snapshot: everything a
// matching session caches, plus the provenance needed to validate it at
// load (corpus fingerprint, matcher parameters, creation time).
type Snapshot struct {
	// Fingerprint identifies the corpus the artifacts were built from
	// (wiki.Corpus.Fingerprint). Restore rejects snapshots whose
	// fingerprint does not match the serving corpus.
	Fingerprint uint64
	// CreatedAt is when the snapshot was written; wikimatchd reports the
	// snapshot's age from it on /healthz.
	CreatedAt time.Time
	// Config is the parameters the artifacts were built under; of them,
	// only LSIRank shaped the artifacts.
	Config core.Params
	// Pairs holds the per-language-pair artifacts, sorted by pair.
	Pairs []PairArtifacts
	// Types holds the per-entity-type artifacts, sorted by
	// (pair, typeA, typeB).
	Types []TypeArtifacts
}

// PairArtifacts is one language pair's cached state: the entity-type
// alignment and the cross-language-link translation dictionary.
type PairArtifacts struct {
	Pair  wiki.LanguagePair
	Types [][2]string
	Dict  *dict.Dictionary
}

// TypeArtifacts is one entity-type pair's cached state: the similarity
// workspace and the LSI model.
type TypeArtifacts struct {
	Pair         wiki.LanguagePair
	TypeA, TypeB string
	TD           *sim.TypeData
	LSI          *lsi.Model
}

// FilterPairs drops, in place, every pair- and type-artifact section
// whose language pair keep rejects. A fleet replica uses it to warm-load
// only the shard slice it owns from a full snapshot; the fingerprint and
// config are untouched, so the filtered snapshot still validates against
// the full corpus. A nil keep keeps everything.
func (s *Snapshot) FilterPairs(keep func(wiki.LanguagePair) bool) {
	if keep == nil {
		return
	}
	pairs := s.Pairs[:0]
	for _, p := range s.Pairs {
		if keep(p.Pair) {
			pairs = append(pairs, p)
		}
	}
	s.Pairs = pairs
	types := s.Types[:0]
	for _, t := range s.Types {
		if keep(t.Pair) {
			types = append(types, t)
		}
	}
	s.Types = types
}

// Write serializes the snapshot to w in the versioned container format.
// Sections are written in a canonical order (config, pairs sorted by
// pair, types sorted by pair/typeA/typeB) with deterministic payload
// encodings, so the same artifacts always produce the same bytes for a
// fixed CreatedAt (a zero CreatedAt is stamped with time.Now, which
// lands in the checksummed header and varies between saves).
func Write(w io.Writer, snap *Snapshot) error {
	cfg, err := json.Marshal(snap.Config)
	if err != nil {
		return fmt.Errorf("store: encode config: %w", err)
	}
	sections := []section{{kind: kindConfig, name: "config", payload: cfg}}

	pairs := append([]PairArtifacts(nil), snap.Pairs...)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Pair.String() < pairs[j].Pair.String() })
	for i := range pairs {
		sections = append(sections, section{
			kind:    kindPair,
			name:    pairs[i].Pair.String(),
			payload: encodePair(&pairs[i]),
		})
	}

	types := append([]TypeArtifacts(nil), snap.Types...)
	sort.Slice(types, func(i, j int) bool {
		a, b := &types[i], &types[j]
		if a.Pair != b.Pair {
			return a.Pair.String() < b.Pair.String()
		}
		if a.TypeA != b.TypeA {
			return a.TypeA < b.TypeA
		}
		return a.TypeB < b.TypeB
	})
	for i := range types {
		sections = append(sections, section{
			kind:    kindType,
			name:    fmt.Sprintf("%s/%s~%s", types[i].Pair, types[i].TypeA, types[i].TypeB),
			payload: encodeType(&types[i]),
		})
	}

	createdAt := snap.CreatedAt
	if createdAt.IsZero() {
		createdAt = time.Now()
	}
	return writeContainer(w, snap.Fingerprint, createdAt.UnixNano(), sections)
}

// Read parses and fully verifies a snapshot from r. On any failure —
// truncation, bit flips, another format version, malformed payloads —
// it returns a typed error and no snapshot; partial state is never
// handed out. Read does not know the serving corpus, so fingerprint
// validation is the caller's job (the service layer's Restore does it).
func Read(r io.Reader) (*Snapshot, error) {
	fingerprint, createdAt, sections, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Fingerprint: fingerprint,
		CreatedAt:   time.Unix(0, createdAt),
	}
	seenConfig := false
	for _, s := range sections {
		label := sectionLabel(s.kind, s.name)
		switch s.kind {
		case kindConfig:
			if err := json.Unmarshal(s.payload, &snap.Config); err != nil {
				return nil, &CorruptError{Section: label, Err: err}
			}
			seenConfig = true
		case kindPair:
			p, err := decodePair(s.payload)
			if err != nil {
				return nil, &CorruptError{Section: label, Err: err}
			}
			snap.Pairs = append(snap.Pairs, *p)
		case kindType:
			t, err := decodeType(s.payload)
			if err != nil {
				return nil, &CorruptError{Section: label, Err: err}
			}
			snap.Types = append(snap.Types, *t)
		default:
			// Unknown section kinds within a known format version are a
			// writer bug, not forward compatibility; fail loudly.
			return nil, &CorruptError{Section: label, Err: fmt.Errorf("unknown section kind %d", s.kind)}
		}
	}
	if !seenConfig {
		return nil, &CorruptError{Section: "config", Err: fmt.Errorf("missing config section")}
	}
	return snap, nil
}
