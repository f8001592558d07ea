package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/wiki"
)

// servedPairs are the paper's two language pairs: pt-en with 14 entity
// types and vi-en with 4.
var servedPairs = []string{"pt-en", "vi-en"}

// paperServing is the paper corpus served by one warm-booted session
// behind the v1 HTTP handler: the system under match-warm and
// match-churn.
type paperServing struct {
	sess   *service.Session
	srv    *server
	ref    map[string]*protocol.MatchResponse // a cold session's answers, normalized
	truth  *paperTruth
	stats0 protocol.CacheStats

	saveMS, restoreMS float64
	snapshotBytes     int

	// writes counts the stream's writes so far.
	stream *deltaStream
	origFP string
	writes int

	m    *core.Matcher
	arts *artifacts
}

func newPaperServing(ctx context.Context, seed int64,
	newStream func(*wiki.Corpus, int64) (*deltaStream, error)) (*paperServing, error) {
	c, gt, err := paperCorpus(seed)
	if err != nil {
		return nil, err
	}
	cold := service.New(c)
	p := &paperServing{ref: make(map[string]*protocol.MatchResponse),
		origFP: fmt.Sprintf("%016x", c.Fingerprint()), m: core.NewMatcher(cold.Config())}
	p.arts = newArtifacts(p.m)
	var refs []*protocol.MatchResponse
	for _, pair := range servedPairs {
		resp, err := cold.ServeMatch(ctx, protocol.MatchRequest{Pair: pair})
		if err != nil {
			return nil, fmt.Errorf("cold %s match: %w", pair, err)
		}
		p.ref[pair] = normalizeMatch(resp)
		refs = append(refs, resp)
	}
	if p.truth, err = newPaperTruth(c, gt, refs); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	start := time.Now()
	if err := cold.Save(&buf); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	p.saveMS = msSince(start)
	p.snapshotBytes = buf.Len()
	start = time.Now()
	if p.sess, err = service.Restore(c, bytes.NewReader(buf.Bytes())); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	p.restoreMS = msSince(start)
	if p.stream, err = newStream(c, seed); err != nil {
		return nil, err
	}
	if p.srv, err = newServer(service.NewHandler(p.sess)); err != nil {
		return nil, err
	}
	p.stats0 = p.sess.CacheStats()
	return p, nil
}

// read sends one POST /v1/match. With compare set the answer must equal
// the cold session's; otherwise (while deltas run) it must be a
// well-formed answer for the pair.
func (p *paperServing) read(ctx context.Context, pair string, sc scope, compare bool) error {
	req := protocol.MatchRequest{Pair: pair}
	var resp *protocol.MatchResponse
	hs, err := sc.span("http.match", func(scope) error {
		var err error
		resp, err = p.srv.cl.Match(ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	if sc.traced() {
		if err := p.probeMatch(ctx, hs, req, resp); err != nil {
			return err
		}
	}
	if compare {
		return sameMatch(resp, p.ref[pair])
	}
	if resp.Pair != pair || len(resp.Types) == 0 || len(resp.Results) != len(resp.Types) {
		return fmt.Errorf("%w: malformed %s answer: %d types, %d results", errCheck, pair, len(resp.Types), len(resp.Results))
	}
	return nil
}

// probeMatch re-drives the work an HTTP match hides: the rebuild of
// any type a delta dirtied, the session's ServeMatch, the per-type
// alignment under it, and the JSON encoding and decoding of the answer.
// The direct answer must equal the HTTP one.
func (p *paperServing) probeMatch(ctx context.Context, hs scope, req protocol.MatchRequest, resp *protocol.MatchResponse) error {
	pair, err := protocol.ParsePair(req.Pair)
	if err != nil {
		return err
	}
	in, err := p.pairInputs(ctx, pair)
	if err != nil {
		return err
	}
	for _, tp := range in.types {
		if _, err := p.arts.get(ctx, hs, in.c, typeKey{pair, tp[0], tp[1]}, in.d); err != nil {
			return err
		}
	}
	var direct *protocol.MatchResponse
	ss, err := hs.span("service.match", func(scope) error {
		var err error
		direct, err = p.sess.ServeMatch(ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	res, err := p.matchTypes(ctx, ss, in)
	if err != nil {
		return err
	}
	var raw []byte
	if _, err := hs.span("protocol.encode", func(scope) error {
		raw, err = json.Marshal(direct)
		return err
	}); err != nil {
		return err
	}
	hs.count("protocol.response_bytes", float64(len(raw)))
	var back protocol.MatchResponse
	if _, err := hs.span("protocol.decode", func(scope) error { return json.Unmarshal(raw, &back) }); err != nil {
		return err
	}
	want := *resp
	if !reflect.DeepEqual(normalizeMatch(direct), normalizeMatch(&want)) {
		return fmt.Errorf("%w: direct ServeMatch differs from the HTTP answer", errCheck)
	}
	for _, r := range direct.Results {
		if n := len(res.PerType[[2]string{r.TypeA, r.TypeB}].CrossPairsSorted()); n != len(r.Correspondences) {
			return fmt.Errorf("%w: %s re-driven match has %d correspondences, served %d", errCheck, r.TypeA, n, len(r.Correspondences))
		}
	}
	return nil
}

// prepareTrace builds and warms the probes' type artifacts with one
// untraced re-driven match per pair.
func (p *paperServing) prepareTrace(ctx context.Context) error {
	for _, name := range servedPairs {
		pair, err := protocol.ParsePair(name)
		if err != nil {
			return err
		}
		in, err := p.pairInputs(ctx, pair)
		if err != nil {
			return err
		}
		if _, err := p.matchTypes(ctx, scope{}, in); err != nil {
			return err
		}
	}
	return nil
}

// pairInputs are what the session's per-type alignment of a pair reads:
// its corpus and its cached entity-type alignment and dictionary.
type pairInputs struct {
	pair  wiki.LanguagePair
	c     *wiki.Corpus
	types [][2]string
	d     *dict.Dictionary
}

func (p *paperServing) pairInputs(ctx context.Context, pair wiki.LanguagePair) (pairInputs, error) {
	in := pairInputs{pair: pair, c: p.sess.Corpus()}
	var err error
	if in.types, err = p.sess.Types(ctx, pair); err != nil {
		return in, err
	}
	in.d, err = p.sess.Dictionary(ctx, pair)
	return in, err
}

func (p *paperServing) matchTypes(ctx context.Context, sc scope, in pairInputs) (*core.Result, error) {
	return matchTypes(ctx, sc, p.m, in.c, in.pair, in.types, in.d,
		func(ctx context.Context, sc scope, k typeKey) (*core.TypeArtifacts, error) {
			return p.arts.get(ctx, sc, in.c, k, in.d)
		})
}

// write applies the next delta of the stream. The traced run applies it
// through the session's ServeDelta and re-times the pair-level diff
// under it: the entity-type alignment and dictionary rebuilt for every
// cached pair the edit touched.
func (p *paperServing) write(ctx context.Context, sc scope) error {
	req, restore := p.stream.delta(p.writes)
	p.writes++
	var resp *protocol.DeltaResponse
	var err error
	if !sc.traced() {
		resp, err = p.srv.cl.Delta(ctx, req)
	} else {
		var ds scope
		ds, err = sc.span("service.delta", func(scope) error {
			var err error
			resp, err = p.sess.ServeDelta(ctx, req)
			return err
		})
		if err == nil {
			err = p.probeDelta(ctx, ds, resp)
		}
	}
	if err != nil {
		return err
	}
	return checkDelta(resp, restore, p.origFP)
}

func (p *paperServing) probeDelta(ctx context.Context, ds scope, resp *protocol.DeltaResponse) error {
	c := p.sess.Corpus()
	for _, dp := range resp.Pairs {
		pair, err := protocol.ParsePair(dp.Pair)
		if err != nil {
			return err
		}
		ds.span("core.entity_types", func(scope) error {
			core.MatchEntityTypes(c, pair)
			return nil
		})
		if _, err := ds.span("dict.build", func(scope) error {
			_, err := dict.BuildCtx(ctx, c, pair.A, pair.B)
			return err
		}); err != nil {
			return err
		}
		if dp.Rebuilt {
			p.arts.drop(pair, nil)
		} else {
			p.arts.drop(pair, dp.DroppedTypes)
		}
	}
	return nil
}

// finish restores the last edit if the stream stopped half way, then
// checks that the session answers exactly as a cold session on the
// original corpus, and scores those answers.
func (p *paperServing) finish(ctx context.Context) (float64, error) {
	if p.writes%2 == 1 {
		if err := p.write(ctx, scope{}); err != nil {
			return 0, fmt.Errorf("restore last edit: %w", err)
		}
	}
	var got []*protocol.MatchResponse
	for _, pair := range servedPairs {
		resp, err := p.srv.cl.Match(ctx, protocol.MatchRequest{Pair: pair})
		if err != nil {
			return 0, err
		}
		if err := sameMatch(resp, p.ref[pair]); err != nil {
			return 0, err
		}
		got = append(got, resp)
	}
	return p.truth.f1(got), nil
}

func (p *paperServing) layers(m map[string]metric) {
	cacheMetrics(m, []protocol.CacheStats{p.stats0}, []protocol.CacheStats{p.sess.CacheStats()})
	m["store.save_ms"] = metric{p.saveMS, "ms"}
	m["store.restore_ms"] = metric{p.restoreMS, "ms"}
	m["store.snapshot_mb"] = metric{float64(p.snapshotBytes) / (1 << 20), "MB"}
}

func (p *paperServing) close() { p.srv.close() }

func (p *paperServing) deltas() *deltaStream { return p.stream }

// warm is match-warm: reads alternating pt-en and vi-en, every one
// served from cached artifacts and checked against a cold session.
type warm struct{ *paperServing }

func setupWarm(ctx context.Context, seed int64, _ string) (workload, error) {
	p, err := newPaperServing(ctx, seed, newProbeStream)
	if err != nil {
		return nil, err
	}
	return warm{p}, nil
}

// op matches pt-en, then vi-en: the two pairs differ about threefold
// in cost, so single requests would cluster by pair and their median
// would sit between the clusters.
func (w warm) op(ctx context.Context, _ int64, sc scope) (bool, error) {
	for _, pair := range servedPairs {
		if err := w.read(ctx, pair, sc, true); err != nil {
			return false, err
		}
	}
	return false, nil
}

// probe applies chunk i of the write probe over HTTP. The chunk leaves
// the corpus as it found it; untimed matches of both pairs then rebuild
// the types it dirtied, so the ops after it are all cache hits again,
// and must answer as the cold session did.
func (w warm) probe(ctx context.Context, i int) ([]time.Duration, error) {
	lat, err := w.stream.chunk(i, func(req protocol.DeltaRequest, restore bool) error {
		resp, err := w.srv.cl.Delta(ctx, req)
		if err != nil {
			return err
		}
		return checkDelta(resp, restore, w.origFP)
	})
	if err != nil {
		return lat, err
	}
	for _, pair := range servedPairs {
		if err := w.read(ctx, pair, scope{}, true); err != nil {
			return lat, fmt.Errorf("after write probe: %w", err)
		}
	}
	return lat, nil
}

// churn is match-churn: the same reads, with one op in eight a corpus
// delta.
type churn struct{ *paperServing }

func setupChurn(ctx context.Context, seed int64, _ string) (workload, error) {
	p, err := newPaperServing(ctx, seed, func(c *wiki.Corpus, seed int64) (*deltaStream, error) {
		return newDeltaStream(c, seed, 16)
	})
	if err != nil {
		return nil, err
	}
	return churn{p}, nil
}

func (w churn) op(ctx context.Context, n int64, sc scope) (bool, error) {
	if n%8 == 7 {
		return true, w.write(ctx, sc)
	}
	for _, pair := range servedPairs {
		if err := w.read(ctx, pair, sc, false); err != nil {
			return false, err
		}
	}
	return false, nil
}

// probe applies nothing: write_p50_ms reports the window's own deltas.
func (w churn) probe(context.Context, int) ([]time.Duration, error) { return nil, nil }

// cacheMetrics reports artifact-cache hits and builds over the run from
// CacheStats snapshots taken after set-up and at the end.
func cacheMetrics(m map[string]metric, before, after []protocol.CacheStats) {
	var hits, builds float64
	for i := range after {
		hits += float64(after[i].Hits - before[i].Hits)
		builds += float64(after[i].Misses - before[i].Misses)
	}
	ratio := 0.0
	if hits+builds > 0 {
		ratio = hits / (hits + builds)
	}
	m["artifact.hits"] = metric{hits, "count"}
	m["artifact.builds"] = metric{builds, "count"}
	m["artifact.hit_ratio"] = metric{ratio, "ratio"}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
