package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/eval"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// Every fixture is a pure function of the run's seed.

// mix spreads a small seed over 64 bits (splitmix64), so neighbouring
// seeds drive unrelated generator streams.
func mix(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// paperCorpus is the paper's pt/vi/en corpus (14 pt-en and 4 vi-en
// entity types) under the seed.
func paperCorpus(seed int64) (*wiki.Corpus, *synth.GroundTruth, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = int64(mix(seed) >> 1)
	return synth.Generate(cfg)
}

// editionsCorpus is the 12-edition star corpus under the seed, with
// scale times the default entities per type.
func editionsCorpus(seed int64, scale int) (*wiki.Corpus, *synth.EditionsTruth, error) {
	cfg := synth.DefaultEditions()
	cfg.Seed = mix(seed)
	cfg.EntitiesPerType *= scale
	return synth.Editions(cfg)
}

// paperTruth scores match responses on the paper corpus: the mean over
// entity types of the paper's weighted F-measure against the
// generator's ground truth.
type paperTruth struct {
	cases map[string]*truthCase // "pair/typeA"
}

type truthCase struct {
	truth        eval.Correspondences
	freqA, freqB map[string]float64
}

func newPaperTruth(c *wiki.Corpus, gt *synth.GroundTruth, responses []*protocol.MatchResponse) (*paperTruth, error) {
	pt := &paperTruth{cases: make(map[string]*truthCase)}
	for _, resp := range responses {
		pair, err := protocol.ParsePair(resp.Pair)
		if err != nil {
			return nil, err
		}
		for _, tp := range resp.Types {
			canon, ok := gt.CanonType(pair.A, tp[0])
			if !ok {
				continue
			}
			tt, ok := gt.TruthFor(canon)
			if !ok {
				continue
			}
			fa, fb := eval.AttributeFrequencies(c, pair, tp[0], tp[1])
			pt.cases[resp.Pair+"/"+tp[0]] = &truthCase{
				truth: eval.TruthPairs(fa, fb, pair, tt.Correct), freqA: fa, freqB: fb}
		}
	}
	return pt, nil
}

func (pt *paperTruth) f1(responses []*protocol.MatchResponse) float64 {
	var sum float64
	var n int
	for _, resp := range responses {
		for _, r := range resp.Results {
			tc, ok := pt.cases[resp.Pair+"/"+r.TypeA]
			if !ok {
				continue
			}
			derived := make(eval.Correspondences)
			for _, c := range r.Correspondences {
				derived.Add(c.A, c.B)
			}
			sum += eval.Weighted(derived, tc.truth, tc.freqA, tc.freqB).F
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// editionsF1 is the pair-counting F-measure of the correspondence
// clusters against the generator's canonical attributes.
func editionsF1(truth *synth.EditionsTruth, clusters []multi.Cluster) float64 {
	var pred [][]string
	for _, cl := range clusters {
		var members []string
		for _, a := range cl.Members {
			members = append(members, fmt.Sprintf("%s|%s|%s", a.Lang, a.Type, a.Name))
		}
		pred = append(pred, members)
	}
	byCanon := make(map[string][]string)
	for lang, types := range truth.AttrCanon {
		for typ, attrs := range types {
			canonType := truth.TypeName[lang][typ]
			for attr, canonAttr := range attrs {
				k := canonType + "/" + canonAttr
				byCanon[k] = append(byCanon[k], fmt.Sprintf("%s|%s|%s", lang, typ, attr))
			}
		}
	}
	keys := make([]string, 0, len(byCanon))
	for k := range byCanon {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	gold := make([][]string, 0, len(keys))
	for _, k := range keys {
		gold = append(gold, byCanon[k])
	}
	return eval.PairCounting(pred, gold).F
}

// The normalizers zero what legitimately differs between two answers
// to the same request: wall-clock timings and cache provenance.

func normalizeMatch(r *protocol.MatchResponse) *protocol.MatchResponse {
	r.ElapsedMS = 0
	r.Cache = protocol.CacheStats{}
	for i := range r.Results {
		r.Results[i].ElapsedMS = 0
	}
	return r
}

func normalizeMatchAll(r *protocol.MatchAllResponse) ([]byte, error) {
	r.ElapsedMS = 0
	r.Cache = protocol.CacheStats{}
	for i := range r.Pairs {
		r.Pairs[i].ElapsedMS = 0
	}
	return json.Marshal(r)
}

func normalizeAudit(r *protocol.AuditResponse) ([]byte, error) {
	r.ElapsedMS = 0
	r.Cache = protocol.CacheStats{}
	for i := range r.Pairs {
		r.Pairs[i].ElapsedMS = 0
	}
	return json.Marshal(r)
}

func sameMatch(got, want *protocol.MatchResponse) error {
	if !reflect.DeepEqual(normalizeMatch(got), want) {
		return fmt.Errorf("%w: %s response differs from the cold session's", errCheck, got.Pair)
	}
	return nil
}

// edit is one article whose infobox value the delta stream rewrites;
// the next edit of the article restores it.
type edit struct {
	change, restore protocol.DeltaRequest
}

// deltaStream is the seeded stream of corpus writes. Round r edits one
// article in every edition, of the edition's r-th entity type (cycling),
// rewriting one infobox value with the value another article of that
// type carries for the attribute. Write k applies edit k/2, changing it
// when k is even and restoring it when k is odd.
type deltaStream struct {
	edits    []edit
	editions int
}

// newDeltaStream builds the given number of rounds.
func newDeltaStream(c *wiki.Corpus, seed int64, rounds int) (*deltaStream, error) {
	rng := rand.New(rand.NewSource(int64(mix(seed ^ 0x5eed))))
	s := &deltaStream{editions: len(c.Languages())}
	for r := 0; r < rounds; r++ {
		for _, l := range c.Languages() {
			types := c.Types(l)
			if len(types) == 0 {
				return nil, fmt.Errorf("edition %s has no typed articles to edit", l)
			}
			e, ok := pickEdit(rng, c.OfType(l, types[r%len(types)]))
			if !ok {
				return nil, fmt.Errorf("no editable %s article of type %q", l, types[r%len(types)])
			}
			s.edits = append(s.edits, e)
		}
	}
	return s, nil
}

// pickEdit tries random articles until one has a value to rewrite and
// renders to wikitext that parses back to the same article, so that a
// restore returns the corpus to its original fingerprint.
func pickEdit(rng *rand.Rand, arts []*wiki.Article) (edit, bool) {
	for try := 0; try < 50 && len(arts) > 1; try++ {
		a, donor := arts[rng.Intn(len(arts))], arts[rng.Intn(len(arts))]
		if a == donor || a.Infobox == nil || donor.Infobox == nil || len(a.Infobox.Attrs) == 0 {
			continue
		}
		k := rng.Intn(len(a.Infobox.Attrs))
		dv, ok := donor.Infobox.Get(a.Infobox.Attrs[k].Name)
		if !ok || dv.Text == a.Infobox.Attrs[k].Text {
			continue
		}
		orig := wiki.RenderPage(a)
		if parsed, err := wiki.ParsePage(a.Language, a.Title, orig); err != nil || !reflect.DeepEqual(parsed, a) {
			continue
		}
		changed := *a
		changed.Infobox = &wiki.Infobox{Template: a.Infobox.Template,
			Attrs: append([]wiki.AttributeValue(nil), a.Infobox.Attrs...)}
		changed.Infobox.Attrs[k] = dv.Clone()
		upsert := func(text string) protocol.DeltaRequest {
			return protocol.DeltaRequest{Upserts: []protocol.DeltaUpsert{
				{Lang: string(a.Language), Title: a.Title, Wikitext: text}}}
		}
		return edit{change: upsert(wiki.RenderPage(&changed)), restore: upsert(orig)}, true
	}
	return edit{}, false
}

// delta returns write k of the stream, which wraps around.
func (s *deltaStream) delta(k int) (req protocol.DeltaRequest, restore bool) {
	e := s.edits[(k/2)%len(s.edits)]
	if k%2 == 1 {
		return e.restore, true
	}
	return e.change, false
}

// roundMeans averages consecutive delta latencies over whole rounds of
// 2×editions writes, which touch every edition twice wherever they
// start. Editions differ in how many cached pairs one delta rewrites,
// so single delta latencies cluster by edition and their median would
// sit between clusters; a round's mean weighs every edition alike. A
// stream shorter than one round gives its own mean.
func (s *deltaStream) roundMeans(lat []time.Duration) []time.Duration {
	n := 2 * s.editions
	if len(lat) < n {
		n = len(lat)
	}
	var out []time.Duration
	for i := 0; n > 0 && i+n <= len(lat); i += n {
		var sum time.Duration
		for _, d := range lat[i : i+n] {
			sum += d
		}
		out = append(out, sum/time.Duration(n))
	}
	return out
}

// chunk applies chunk i of the write probe: the next probeRounds rounds
// of the stream, which wraps around. Each write is checked by apply. It
// returns the latencies of the writes applied.
func (s *deltaStream) chunk(i int, apply func(req protocol.DeltaRequest, restore bool) error) ([]time.Duration, error) {
	n, per := probeRounds(s.editions), 2*s.editions
	var lat []time.Duration
	for k := i * n * per; k < (i+1)*n*per; k++ {
		req, restore := s.delta(k)
		start := time.Now()
		if err := apply(req, restore); err != nil {
			return lat, err
		}
		lat = append(lat, time.Since(start))
	}
	return lat, nil
}

// checkDelta checks a delta's answer: one article updated, and the
// corpus back at its original fingerprint exactly after a restore.
func checkDelta(resp *protocol.DeltaResponse, restore bool, origFP string) error {
	if resp.Updated != 1 || resp.Added != 0 || resp.Removed != 0 {
		return fmt.Errorf("%w: delta updated %d, added %d, removed %d; want one update",
			errCheck, resp.Updated, resp.Added, resp.Removed)
	}
	if restore != (resp.Fingerprint == origFP) {
		return fmt.Errorf("%w: corpus fingerprint %s after a delta (restore %v, original %s)",
			errCheck, resp.Fingerprint, restore, origFP)
	}
	return nil
}

// probeRounds is how many rounds of the delta stream one chunk of the
// write probe applies, on workloads whose own traffic has no writes:
// two on the paper corpus's three editions (12 writes), one on the
// twelve-edition corpus (24 writes).
func probeRounds(editions int) int {
	if editions < 6 {
		return 2
	}
	return 1
}

// newProbeStream is the delta stream of a write probe: one chunk per
// segment of the window.
func newProbeStream(c *wiki.Corpus, seed int64) (*deltaStream, error) {
	return newDeltaStream(c, seed, segments*probeRounds(len(c.Languages())))
}

// server is one in-process HTTP server with a client of its own that
// never retries, so every failure reaches the benchmark.
type server struct {
	srv *httptest.Server
	tr  *http.Transport
	cl  *client.Client
}

func newServer(h http.Handler) (*server, error) {
	s := &server{srv: httptest.NewServer(h), tr: &http.Transport{MaxIdleConnsPerHost: 8}}
	cl, err := client.New(s.srv.URL, client.WithRetries(0, time.Millisecond),
		client.WithHTTPClient(&http.Client{Transport: s.tr}))
	if err != nil {
		s.close()
		return nil, err
	}
	s.cl = cl
	return s, nil
}

func (s *server) close() {
	s.tr.CloseIdleConnections()
	s.srv.Close()
}
