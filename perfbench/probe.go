package main

import (
	"context"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/lsi"
	"repro/internal/sim"
	"repro/internal/wiki"
)

// The traced run re-drives work that a served call hides (an HTTP
// round trip, a session's cached build) through the layers' public
// functions, so that every layer gets a span of its own.

// typeKey names one entity-type pair's artifacts.
type typeKey struct {
	pair         wiki.LanguagePair
	typeA, typeB string
}

// artifacts caches type artifacts for the re-driven matches. A key
// marked dirty was dropped by a corpus delta; its rebuild is traced,
// because the session pays the same rebuild on its next read. A first
// fill is not traced: the session built those artifacts at set-up.
type artifacts struct {
	m     *core.Matcher
	mu    sync.Mutex
	byKey map[typeKey]*core.TypeArtifacts
	dirty map[typeKey]bool
}

func newArtifacts(m *core.Matcher) *artifacts {
	return &artifacts{m: m, byKey: make(map[typeKey]*core.TypeArtifacts), dirty: make(map[typeKey]bool)}
}

func (a *artifacts) get(ctx context.Context, sc scope, c *wiki.Corpus, k typeKey, d *dict.Dictionary) (*core.TypeArtifacts, error) {
	a.mu.Lock()
	art, ok := a.byKey[k]
	rebuild := a.dirty[k]
	a.mu.Unlock()
	if ok {
		return art, nil
	}
	if !rebuild {
		sc = scope{}
	}
	art, err := buildTypeArtifacts(ctx, sc, a.m, c, k, d)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.byKey[k] = art
	delete(a.dirty, k)
	a.mu.Unlock()
	return art, nil
}

// drop forgets the artifacts of the given types, or of every type of
// the pair when types is nil, and marks them dirty.
func (a *artifacts) drop(pair wiki.LanguagePair, types [][2]string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for k := range a.byKey {
		if k.pair == pair && types == nil {
			delete(a.byKey, k)
			a.dirty[k] = true
		}
	}
	for _, t := range types {
		k := typeKey{pair, t[0], t[1]}
		delete(a.byKey, k)
		a.dirty[k] = true
	}
}

// buildTypeArtifacts is core.Matcher.BuildTypeArtifacts with a span
// around each of its two builds.
func buildTypeArtifacts(ctx context.Context, sc scope, m *core.Matcher, c *wiki.Corpus, k typeKey, d *dict.Dictionary) (*core.TypeArtifacts, error) {
	cfg := m.Config()
	if cfg.NoDictionary {
		d = nil
	}
	art := &core.TypeArtifacts{}
	_, err := sc.span("sim.type_data", func(scope) error {
		var err error
		art.TD, err = sim.BuildTypeDataCtx(ctx, c, k.pair, k.typeA, k.typeB, d)
		return err
	})
	if err != nil {
		return nil, err
	}
	_, err = sc.span("lsi.build", func(scope) error {
		var err error
		art.LSI, err = lsi.BuildWithCtx(ctx, art.TD.Duals, cfg.LSIRank, lsi.Options{ExactSVD: cfg.ExactSVD}, art.TD.Attrs...)
		return err
	})
	if err != nil {
		return nil, err
	}
	if sc.traced() {
		sc.count("lsi.nnz", float64(lsi.OccurrenceMatrix(art.TD.Duals, art.LSI.Index).NNZ()))
	}
	return art, nil
}

// matchTypes aligns every type of a pair in parallel, as core.MatchCtx
// does, under one "core.match" span with a "core.match_type" span per
// type. artFor supplies (and may build) each type's artifacts.
func matchTypes(ctx context.Context, sc scope, m *core.Matcher, c *wiki.Corpus, pair wiki.LanguagePair,
	types [][2]string, d *dict.Dictionary,
	artFor func(ctx context.Context, sc scope, k typeKey) (*core.TypeArtifacts, error)) (*core.Result, error) {
	res := &core.Result{Pair: pair, Types: types, Dict: d, PerType: make(map[[2]string]*core.TypeResult)}
	results := make([]*core.TypeResult, len(types))
	errs := make([]error, len(types))
	_, err := sc.span("core.match", func(s scope) error {
		core.ParallelTypes(ctx, len(types), func(i int) {
			tp := types[i]
			art, err := artFor(ctx, s, typeKey{pair, tp[0], tp[1]})
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = s.span("core.match_type", func(scope) error {
				var err error
				results[i], err = m.MatchTypeCtx(ctx, c, pair, tp[0], tp[1], d, art)
				return err
			})
			if tr := results[i]; tr != nil && s.traced() {
				corr := 0
				for _, bs := range tr.Cross {
					corr += len(bs)
				}
				s.count("core.candidates", float64(len(tr.Candidates)))
				s.count("core.correspondences", float64(corr))
			}
		})
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	for i, tp := range types {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.PerType[tp] = results[i]
		res.TypeList = append(res.TypeList, tp[0])
	}
	sort.Strings(res.TypeList)
	return res, nil
}

// coldMatcher is a multi.PairMatcher that builds everything from the
// corpus through the layers' public functions, as a fresh session does.
type coldMatcher struct {
	sc scope
	m  *core.Matcher
	c  *wiki.Corpus
}

func (cm coldMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	var types [][2]string
	cm.sc.span("core.entity_types", func(scope) error {
		types = core.MatchEntityTypes(cm.c, pair)
		return nil
	})
	var d *dict.Dictionary
	_, err := cm.sc.span("dict.build", func(scope) error {
		var err error
		d, err = dict.BuildCtx(ctx, cm.c, pair.A, pair.B)
		return err
	})
	if err != nil {
		return nil, err
	}
	return matchTypes(ctx, cm.sc, cm.m, cm.c, pair, types, d,
		func(ctx context.Context, sc scope, k typeKey) (*core.TypeArtifacts, error) {
			return buildTypeArtifacts(ctx, sc, cm.m, cm.c, k, d)
		})
}
