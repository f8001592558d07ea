// Package core implements WikiMatch, the paper's contribution: entity-type
// matching across languages (Section 3.1), the AttributeAlignment
// algorithm (Algorithm 1), IntegrateMatches (Algorithm 2), and the
// ReviseUncertain step (Section 3.4), together with the ablation switches
// the component-contribution study (Section 4.2, Table 3) needs.
package core

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/lsi"
	"repro/internal/sim"
	"repro/internal/wiki"
)

// Params are WikiMatch's served parameters: the paper runs one setting
// of them for every language pair, "without any special tuning per
// language or type". Of the four, only LSIRank shapes cached artifacts;
// the thresholds act at match time.
type Params struct {
	// TSim is the high-confidence threshold on max(vsim, lsim) that
	// separates certain from uncertain candidates (paper: 0.6).
	TSim float64 `json:"tsim"`
	// TLSI is the low correlation threshold candidates must exceed to
	// enter the priority queue and that gates IntegrateMatches (paper: 0.1).
	TLSI float64 `json:"tlsi"`
	// TEg is the inductive-grouping threshold of ReviseUncertain.
	TEg float64 `json:"teg"`
	// LSIRank is the number of latent dimensions (the paper's f).
	LSIRank int `json:"lsiRank"`
}

// DefaultParams returns the parameters used throughout the paper's
// evaluation: Tsim = 0.6, TLSI = 0.1 and the default LSI rank.
func DefaultParams() Params {
	return Params{TSim: 0.6, TLSI: 0.1, TEg: 0.1, LSIRank: lsi.DefaultRank}
}

// Config holds WikiMatch's parameters and the ablation switches the
// offline experiments (Table 3) and the equivalence tests set.
type Config struct {
	Params

	// Ablation switches (Table 3 / Figure 3 configurations).
	DisableVSim      bool // WikiMatch−vsim
	DisableLSim      bool // WikiMatch−lsim
	DisableLSI       bool // WikiMatch−LSI: order by max(vsim,lsim)
	DisableIntegrate bool // WikiMatch−IntegrateMatches: merge unconditionally
	DisableRevise    bool // WikiMatch−ReviseUncertain (WM*)
	DisableInductive bool // WikiMatch−inductive grouping: revise all of U
	RandomOrder      bool // WikiMatch random: shuffle the queue
	SingleStep       bool // WikiMatch single step: accept all positive candidates
	NoDictionary     bool // vsim without dictionary translation (extra ablation)

	// Seed drives the RandomOrder shuffle.
	Seed int64

	// ExactSVD forces the exact dense Jacobi SVD inside LSI instead of
	// the default sparse randomized path — a validation switch for
	// asserting the fast path changes no alignments.
	ExactSVD bool

	// candidates is the per-attribute shortlist width of the pruned
	// scoring path (prune.go): every pair whose quantized-LSI upper
	// bound clears TLSI is rescored exactly, plus each attribute's
	// candidates best partners by quantized estimate. 0 selects
	// defaultCandidates; negative values disable pruning and score
	// exhaustively. Survivors are always rescored with the exact
	// float64 pipeline, so the setting never changes match results —
	// only how much provably irrelevant work is skipped. Only this
	// package's tests set it.
	candidates int

	// exactScore forces the exhaustive reference scorer, bypassing the
	// pruned path entirely: the baseline this package's equivalence
	// tests and BenchmarkMatchExhaustive compare the pruned path
	// against.
	exactScore bool
}

// DefaultConfig returns DefaultParams with every ablation switch off.
func DefaultConfig() Config { return Config{Params: DefaultParams()} }

// Matcher runs WikiMatch over a corpus.
type Matcher struct {
	cfg Config
}

// NewMatcher creates a matcher with the given configuration.
func NewMatcher(cfg Config) *Matcher { return &Matcher{cfg: cfg} }

// Config returns the matcher's configuration.
func (m *Matcher) Config() Config { return m.cfg }

// Candidate is a scored attribute pair: the tuple
// (⟨ap, aq⟩, vsim, lsim, LSI) of Algorithm 1.
type Candidate struct {
	I, J             int
	VSim, LSim, LSI  float64
	InductiveScore   float64 // filled by ReviseUncertain for uncertain pairs
	AcceptedCertain  bool
	AcceptedRevision bool
}

// MatchSet is the evolving set M of matches: a partition of attribute
// indices into synonym components. It implements sim.Matched.
type MatchSet struct {
	comp    []int
	members map[int][]int
	next    int
}

// NewMatchSet creates an empty match set over n attributes.
func NewMatchSet(n int) *MatchSet {
	ms := &MatchSet{comp: make([]int, n), members: make(map[int][]int)}
	for i := range ms.comp {
		ms.comp[i] = -1
	}
	return ms
}

// Contains reports whether attribute i belongs to any match.
func (ms *MatchSet) Contains(i int) bool { return ms.comp[i] >= 0 }

// Aligned reports whether attributes i and j are in the same match.
func (ms *MatchSet) Aligned(i, j int) bool {
	return ms.comp[i] >= 0 && ms.comp[i] == ms.comp[j]
}

// Members returns the attribute indices of attribute i's match (nil if
// unmatched).
func (ms *MatchSet) Members(i int) []int {
	if ms.comp[i] < 0 {
		return nil
	}
	return ms.members[ms.comp[i]]
}

// Components returns every match component, each sorted, in creation
// order.
func (ms *MatchSet) Components() [][]int {
	ids := make([]int, 0, len(ms.members))
	for id := range ms.members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([][]int, 0, len(ids))
	for _, id := range ids {
		c := append([]int(nil), ms.members[id]...)
		sort.Ints(c)
		out = append(out, c)
	}
	return out
}

func (ms *MatchSet) newComponent(i, j int) {
	id := ms.next
	ms.next++
	ms.comp[i], ms.comp[j] = id, id
	ms.members[id] = []int{i, j}
}

func (ms *MatchSet) addTo(compID, i int) {
	ms.comp[i] = compID
	ms.members[compID] = append(ms.members[compID], i)
}

// TypeResult is the outcome of matching one entity type across the pair.
// It is immutable once returned, so one result may be shared by many
// readers: the lazily built confidences are guarded by a sync.Once.
type TypeResult struct {
	TypeA, TypeB string
	TD           *sim.TypeData
	LSI          *lsi.Model
	Matches      *MatchSet
	Candidates   []Candidate // queue contents in processed order
	// Cross maps each pair.A-side attribute name (normalized) to the set
	// of pair.B-side names it corresponds to — the derived set C.
	Cross map[string]map[string]bool

	// conf caches per-pair confidences (see confidence.go), built at
	// most once under confOnce.
	confOnce sync.Once
	conf     map[[2]string]float64
}

// CrossPairsSorted returns the derived cross-language correspondences as
// sorted (a, b) name pairs.
func (r *TypeResult) CrossPairsSorted() [][2]string {
	var out [][2]string
	for a, bs := range r.Cross {
		for b := range bs {
			out = append(out, [2]string{a, b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// MatchEntityTypes identifies equivalent entity types across the language
// pair by cross-language-link voting (Section 3.1): type T maps to the
// type T′ its infoboxes most often link to, provided the choice is
// mutual.
func MatchEntityTypes(c *wiki.Corpus, pair wiki.LanguagePair) [][2]string {
	votes := c.TypePairCount(pair)
	bestB := map[string]string{}
	bestBCount := map[string]int{}
	bestA := map[string]string{}
	bestACount := map[string]int{}
	keys := make([][2]string, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		a, b, n := k[0], k[1], votes[k]
		if n > bestBCount[a] {
			bestBCount[a], bestB[a] = n, b
		}
		if n > bestACount[b] {
			bestACount[b], bestA[b] = n, a
		}
	}
	var out [][2]string
	for a, b := range bestB {
		if bestA[b] == a {
			out = append(out, [2]string{a, b})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Result is a full matching run over one language pair.
type Result struct {
	Pair     wiki.LanguagePair
	Types    [][2]string
	PerType  map[[2]string]*TypeResult
	Dict     *dict.Dictionary
	TypeList []string // pair.A-side type names, sorted
}

// TypeArtifacts carries the prebuilt inputs of one type alignment: the
// similarity workspace and the LSI model BuildTypeArtifacts makes. A
// long-lived session caches them, so repeated matches skip the expensive
// construction.
type TypeArtifacts struct {
	TD  *sim.TypeData
	LSI *lsi.Model
}

// Match runs WikiMatch end to end for a language pair: it matches entity
// types, builds the translation dictionary from cross-language links, and
// aligns attributes per type. Types are independent, so they are matched
// concurrently; the result is identical to a sequential run.
func (m *Matcher) Match(c *wiki.Corpus, pair wiki.LanguagePair) *Result {
	res, _ := m.MatchCtx(context.Background(), c, pair)
	return res
}

// MatchCtx is Match with cancellation: it checks ctx between pipeline
// stages and inside the per-type scoring loops, and returns
// (nil, ctx.Err()) as soon as the context is done. It builds everything
// from the corpus — the cold reference a caching session must equal.
func (m *Matcher) MatchCtx(ctx context.Context, c *wiki.Corpus, pair wiki.LanguagePair) (*Result, error) {
	types := MatchEntityTypes(c, pair)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var d *dict.Dictionary
	if !m.cfg.NoDictionary {
		var err error
		if d, err = dict.BuildCtx(ctx, c, pair.A, pair.B); err != nil {
			return nil, err
		}
	}
	aligned := make([]*TypeResult, len(types))
	errs := make([]error, len(types))
	ParallelTypes(ctx, len(types), func(i int) {
		aligned[i], errs[i] = m.MatchTypeCtx(ctx, c, pair, types[i][0], types[i][1], d, nil)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return NewResult(pair, types, d, aligned), nil
}

// NewResult assembles a pair's Result from its entity-type alignment,
// its dictionary and each type's alignment, in types order.
func NewResult(pair wiki.LanguagePair, types [][2]string, d *dict.Dictionary, aligned []*TypeResult) *Result {
	res := &Result{Pair: pair, Types: types, Dict: d, PerType: make(map[[2]string]*TypeResult, len(types))}
	for i, tp := range types {
		res.PerType[tp] = aligned[i]
		res.TypeList = append(res.TypeList, tp[0])
	}
	sort.Strings(res.TypeList)
	return res
}

// ParallelTypes runs worker(i) for every i in [0, n) across a
// GOMAXPROCS-capped goroutine pool — the type scheduling of MatchCtx and
// of a caching session's pair path; with n = 0 it starts no goroutine.
// Once ctx is done, remaining indices are skipped (drained without
// work); the caller decides what a skip means by checking ctx.Err()
// afterwards. worker must be safe for concurrent calls on distinct
// indices.
func ParallelTypes(ctx context.Context, n int, worker func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue
				}
				worker(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ByTypeA returns the per-type result for a pair.A-side type name. The
// lookup walks the sorted Types slice rather than the PerType map, so
// when a type name appears in several pairs the same result is returned
// on every call.
func (r *Result) ByTypeA(typeA string) (*TypeResult, bool) {
	for _, tp := range r.Types {
		if tp[0] == typeA {
			return r.PerType[tp], true
		}
	}
	return nil, false
}

// MatchType aligns the attributes of one matched type pair — Algorithm 1.
func (m *Matcher) MatchType(c *wiki.Corpus, pair wiki.LanguagePair, typeA, typeB string, d *dict.Dictionary) *TypeResult {
	r, _ := m.MatchTypeCtx(context.Background(), c, pair, typeA, typeB, d, nil)
	return r
}

// BuildTypeArtifacts constructs one type pair's artifacts, honouring the
// matcher's dictionary and SVD configuration — the one factory a caching
// session and a cold MatchTypeCtx share, so cached and cold runs are
// identical.
func (m *Matcher) BuildTypeArtifacts(ctx context.Context, c *wiki.Corpus, pair wiki.LanguagePair, typeA, typeB string, d *dict.Dictionary) (*TypeArtifacts, error) {
	art := &TypeArtifacts{}
	var err error
	if m.cfg.NoDictionary {
		d = nil
	}
	if art.TD, err = sim.BuildTypeDataCtx(ctx, c, pair, typeA, typeB, d); err != nil {
		return nil, err
	}
	art.LSI, err = lsi.BuildWithCtx(ctx, art.TD.Duals, m.cfg.LSIRank,
		lsi.Options{ExactSVD: m.cfg.ExactSVD}, art.TD.Attrs...)
	if err != nil {
		return nil, err
	}
	return art, nil
}

// MatchTypeCtx is MatchType with cancellation and artifact injection: ctx
// is checked during artifact construction and at every chunk boundary of
// the pair-scoring stage, and art (when non-nil) supplies the prebuilt
// TypeData and LSI model so the alignment skips straight to scoring; a
// nil art is built with BuildTypeArtifacts.
func (m *Matcher) MatchTypeCtx(ctx context.Context, c *wiki.Corpus, pair wiki.LanguagePair, typeA, typeB string, d *dict.Dictionary, art *TypeArtifacts) (*TypeResult, error) {
	cfg := m.cfg
	if art == nil {
		var err error
		if art, err = m.BuildTypeArtifacts(ctx, c, pair, typeA, typeB, d); err != nil {
			return nil, err
		}
	}
	td, model := art.TD, art.LSI
	r := &TypeResult{TypeA: typeA, TypeB: typeB, TD: td, LSI: model}

	vsim := func(i, j int) float64 {
		if cfg.DisableVSim {
			return 0
		}
		return td.VSim(i, j)
	}
	lsim := func(i, j int) float64 {
		if cfg.DisableLSim {
			return 0
		}
		return td.LSim(i, j)
	}

	// Score attribute pairs, within and across languages — the per-type
	// hot path. The default route is the pruned path (prune.go): a
	// quantized shortlist pass discards pairs whose LSI score provably
	// cannot clear TLSI, and only survivors get exact scores. Its queue
	// is identical to the exhaustive one — membership depends only on
	// the exact LSI score, survivors are rescored exactly, and they are
	// enumerated in the same lexicographic pair order, so even
	// stable-sort tie order is preserved. Configurations the shortlist
	// bound cannot serve (ablations, exactScore, negative thresholds)
	// take the exhaustive reference route below.
	n := len(td.Attrs)
	var queue []Candidate
	var gate func(i, j int) bool
	if cfg.usePruned(n) {
		var err error
		if queue, err = prunedQueue(ctx, td, model, cfg); err != nil {
			return nil, err
		}
		// The integrate gate recomputes the exact LSI score on demand:
		// Score is a pure function of the immutable model, so this equals
		// the exhaustive path's precomputed matrix entry bit for bit.
		gate = func(i, j int) bool {
			return model.ScoreAttrs(td.Attrs[i], td.Attrs[j]) > cfg.TLSI
		}
	} else {
		pairs := td.AllPairs()
		scores := make([]pairScores, len(pairs))
		scoreRange := func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				p := pairs[idx]
				scores[idx] = pairScores{
					vsim: vsim(p[0], p[1]),
					lsim: lsim(p[0], p[1]),
					lsi:  model.ScoreAttrs(td.Attrs[p[0]], td.Attrs[p[1]]),
				}
			}
		}
		if err := scorePairsCtx(ctx, len(pairs), scoreRange); err != nil {
			return nil, err
		}

		lsiScore := make([][]float64, n)
		for i := range lsiScore {
			lsiScore[i] = make([]float64, n)
		}
		for idx, p := range pairs {
			s := scores[idx].lsi
			lsiScore[p[0]][p[1]], lsiScore[p[1]][p[0]] = s, s
		}

		// gate is the pairwise-correlation test of IntegrateMatches. When LSI
		// is ablated it degrades to the same-language-co-occurrence veto that
		// drives Example 2.
		gate = func(i, j int) bool {
			if cfg.DisableLSI {
				return !(td.Attrs[i].Lang == td.Attrs[j].Lang && td.CoOccurLang(i, j) > 0)
			}
			return lsiScore[i][j] > cfg.TLSI
		}

		// Build the priority queue P.
		for idx, p := range pairs {
			cand := Candidate{I: p[0], J: p[1],
				VSim: scores[idx].vsim, LSim: scores[idx].lsim, LSI: scores[idx].lsi}
			if cfg.DisableLSI {
				if maxF(cand.VSim, cand.LSim) > 0 {
					queue = append(queue, cand)
				}
				continue
			}
			if cand.LSI > cfg.TLSI {
				queue = append(queue, cand)
			}
		}
	}
	switch {
	case cfg.RandomOrder:
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
	case cfg.DisableLSI:
		sort.SliceStable(queue, func(i, j int) bool {
			return maxF(queue[i].VSim, queue[i].LSim) > maxF(queue[j].VSim, queue[j].LSim)
		})
	default:
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].LSI > queue[j].LSI })
	}

	ms := NewMatchSet(n)
	integrate := func(i, j int) {
		switch {
		case !ms.Contains(i) && !ms.Contains(j):
			ms.newComponent(i, j)
		case ms.Contains(i) && ms.Contains(j):
			// Both already matched; Algorithm 2 leaves them untouched.
		case cfg.DisableIntegrate:
			// Ablation: merge without the pairwise-correlation check.
			if ms.Contains(i) {
				ms.addTo(ms.comp[i], j)
			} else {
				ms.addTo(ms.comp[j], i)
			}
		default:
			in, out := i, j
			if ms.Contains(j) {
				in, out = j, i
			}
			ok := true
			for _, a := range ms.Members(in) {
				if !gate(out, a) {
					ok = false
					break
				}
			}
			if ok {
				ms.addTo(ms.comp[in], out)
			}
		}
	}

	if cfg.SingleStep {
		// Single-step ablation: every candidate with positive vsim or
		// lsim is accepted as a correspondence outright, with no staging
		// and no correlation gates — the paper's high-recall,
		// low-precision degenerate configuration.
		var direct [][2]int
		for idx := range queue {
			cand := &queue[idx]
			if maxF(cand.VSim, cand.LSim) > 0 {
				cand.AcceptedCertain = true
				direct = append(direct, [2]int{cand.I, cand.J})
				if !ms.Contains(cand.I) && !ms.Contains(cand.J) {
					ms.newComponent(cand.I, cand.J)
				} else if ms.Contains(cand.I) && !ms.Contains(cand.J) {
					ms.addTo(ms.comp[cand.I], cand.J)
				} else if !ms.Contains(cand.I) && ms.Contains(cand.J) {
					ms.addTo(ms.comp[cand.J], cand.I)
				}
			}
		}
		r.Matches = ms
		r.Candidates = queue
		r.Cross = crossFromPairs(td, direct)
		return r, nil
	}

	var uncertain []Candidate
	for idx := range queue {
		cand := &queue[idx]
		if maxF(cand.VSim, cand.LSim) > cfg.TSim {
			cand.AcceptedCertain = true
			integrate(cand.I, cand.J)
		} else {
			uncertain = append(uncertain, *cand)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if !cfg.DisableRevise {
		// ReviseUncertain: score the buffered pairs by inductive grouping
		// against the certain matches, keep the well-supported ones that
		// carry at least some direct similarity evidence, and integrate
		// them (this time without the Tsim constraint).
		const minEvidence = 0.05
		for idx := range uncertain {
			u := &uncertain[idx]
			u.InductiveScore = td.InductiveGrouping(u.I, u.J, ms)
		}
		revised := make([]Candidate, 0, len(uncertain))
		for _, u := range uncertain {
			if maxF(u.VSim, u.LSim) <= minEvidence {
				continue
			}
			if cfg.DisableInductive || u.InductiveScore > cfg.TEg {
				revised = append(revised, u)
			}
		}
		// Process revised candidates by their direct similarity evidence
		// (LSI breaking ties): among pairs that all fell short of Tsim,
		// the remaining vsim/lsim signal is the most reliable
		// discriminator, and it lets true-but-weak pairs claim their
		// attributes before coincidentally correlated ones. The
		// random-ordering ablation shuffles here too.
		if cfg.RandomOrder {
			rng := rand.New(rand.NewSource(cfg.Seed + 2))
			rng.Shuffle(len(revised), func(i, j int) { revised[i], revised[j] = revised[j], revised[i] })
		} else {
			sort.SliceStable(revised, func(i, j int) bool {
				si, sj := maxF(revised[i].VSim, revised[i].LSim), maxF(revised[j].VSim, revised[j].LSim)
				if si != sj {
					return si > sj
				}
				return revised[i].LSI > revised[j].LSI
			})
		}
		for _, u := range revised {
			integrate(u.I, u.J)
			for qi := range queue {
				if queue[qi].I == u.I && queue[qi].J == u.J {
					queue[qi].AcceptedRevision = true
					queue[qi].InductiveScore = u.InductiveScore
				}
			}
		}
	}

	r.Matches = ms
	r.Candidates = queue
	r.Cross = extractCross(td, ms)
	return r, nil
}

// crossFromPairs builds the correspondence map from an explicit pair
// list (single-step mode).
func crossFromPairs(td *sim.TypeData, pairs [][2]int) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, p := range pairs {
		i, j := p[0], p[1]
		if td.Attrs[i].Lang == td.Attrs[j].Lang {
			continue
		}
		if td.Attrs[i].Lang != td.Pair.A {
			i, j = j, i
		}
		a, b := td.Attrs[i].Name, td.Attrs[j].Name
		if out[a] == nil {
			out[a] = make(map[string]bool)
		}
		out[a][b] = true
	}
	return out
}

// extractCross turns match components into cross-language correspondences.
func extractCross(td *sim.TypeData, ms *MatchSet) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, comp := range ms.Components() {
		for _, i := range comp {
			if td.Attrs[i].Lang != td.Pair.A {
				continue
			}
			for _, j := range comp {
				if td.Attrs[j].Lang != td.Pair.B {
					continue
				}
				a, b := td.Attrs[i].Name, td.Attrs[j].Name
				if out[a] == nil {
					out[a] = make(map[string]bool)
				}
				out[a][b] = true
			}
		}
	}
	return out
}

// pairScores carries the three similarity signals computed for one
// attribute pair during the scoring stage.
type pairScores struct {
	vsim, lsim, lsi float64
}

// scoreTokens bounds the helper goroutines all concurrent pair-scoring
// stages may spawn between them. Match's type-level pool and the
// intra-type stage compose through it without oversubscribing: while
// many types are in flight the tokens run dry and each type scores on
// its own worker, and a late-running large type absorbs whatever
// capacity finished types have released.
var scoreTokens = func() chan struct{} {
	c := make(chan struct{}, runtime.NumCPU())
	for i := 0; i < cap(c); i++ {
		c <- struct{}{}
	}
	return c
}()

// scorePairsCtx runs fn over [0, n) — serially for small types, otherwise
// chunked across the calling goroutine plus however many helpers the
// shared token pool will fund right now. fn must be safe to call
// concurrently on disjoint ranges. The context is checked at every chunk
// boundary (on the serial path too); once it is done, remaining chunks
// are abandoned and ctx.Err() is returned.
func scorePairsCtx(ctx context.Context, n int, fn func(lo, hi int)) error {
	const (
		minParallel = 512 // below this the fan-out costs more than it saves
		chunk       = 256
	)
	if n < minParallel {
		for lo := 0; lo < n; lo += chunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return ctx.Err()
	}
	var next int64
	work := func() {
		for ctx.Err() == nil {
			lo := int(atomic.AddInt64(&next, chunk)) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	helpers := (n+chunk-1)/chunk - 1 // the caller works too
	if helpers > cap(scoreTokens) {
		helpers = cap(scoreTokens)
	}
	var wg sync.WaitGroup
spawn:
	for i := 0; i < helpers; i++ {
		select {
		case <-scoreTokens:
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
				scoreTokens <- struct{}{}
			}()
		default:
			break spawn // pool exhausted; run with what we have
		}
	}
	work()
	wg.Wait()
	return ctx.Err()
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
