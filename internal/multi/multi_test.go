package multi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wiki"
)

const (
	en = wiki.English
	pt = wiki.Portuguese
	vi = wiki.Vietnamese
)

// fakeMatcher serves canned per-pair results and records scheduling
// behaviour (call set, concurrency high-water mark).
type fakeMatcher struct {
	mu          sync.Mutex
	results     map[wiki.LanguagePair]*core.Result
	errs        map[wiki.LanguagePair]error
	calls       []wiki.LanguagePair
	inflight    int
	maxInflight int
}

func (f *fakeMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	f.mu.Lock()
	f.calls = append(f.calls, pair)
	f.inflight++
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.inflight--
		f.mu.Unlock()
	}()
	if err := f.errs[pair]; err != nil {
		return nil, err
	}
	res, ok := f.results[pair]
	if !ok {
		return nil, fmt.Errorf("fake: unexpected pair %s", pair)
	}
	return res, nil
}

// result builds a one-type fake Result: typeA~typeB with the given
// cross-language correspondences and confidences.
func result(pair wiki.LanguagePair, typeA, typeB string, corr map[[2]string]float64) *core.Result {
	cross := make(map[string]map[string]bool)
	conf := make(map[[2]string]float64)
	for p, c := range corr {
		if cross[p[0]] == nil {
			cross[p[0]] = make(map[string]bool)
		}
		cross[p[0]][p[1]] = true
		conf[p] = c
	}
	tp := [2]string{typeA, typeB}
	return &core.Result{
		Pair:    pair,
		Types:   [][2]string{tp},
		PerType: map[[2]string]*core.TypeResult{tp: core.NewTypeResult(typeA, typeB, cross, conf)},
	}
}

// emptyResult is a pair that matched successfully but aligned nothing —
// the shape a resource-poor direct pair (Pt–Vi without cross-language
// links) produces.
func emptyResult(pair wiki.LanguagePair) *core.Result {
	return &core.Result{Pair: pair, PerType: map[[2]string]*core.TypeResult{}}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"pivot", ModePivot, true},
		{"direct", ModeDirect, true},
		{"", 0, false},
		{"both", 0, false},
	} {
		got, err := ParseMode(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if ModePivot.String() != "pivot" || ModeDirect.String() != "direct" {
		t.Errorf("mode strings: %q %q", ModePivot, ModeDirect)
	}
}

func TestNewPlan(t *testing.T) {
	langs := []wiki.Language{en, pt, vi}

	pivot, err := NewPlan(langs, ModePivot, en)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(pivot.Pairs); got != "[pt-en vi-en]" {
		t.Errorf("pivot pairs = %v", got)
	}

	direct, err := NewPlan(langs, ModeDirect, en)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(direct.Pairs); got != "[pt-en pt-vi vi-en]" {
		t.Errorf("direct pairs = %v", got)
	}
	if !direct.Contains(vi, pt) || !direct.Contains(pt, vi) {
		t.Error("direct plan should contain pt-vi in either orientation")
	}
	if pivot.Contains(pt, vi) {
		t.Error("pivot plan should not contain pt-vi")
	}

	if _, err := NewPlan([]wiki.Language{en}, ModePivot, en); err == nil {
		t.Error("single-language plan accepted")
	}
	if _, err := NewPlan(langs, ModePivot, "de"); err == nil {
		t.Error("pivot with absent hub accepted")
	}
	if _, err := NewPlan(langs, ModePivot, "DE"); err == nil {
		t.Error("invalid hub language accepted")
	}
	if _, err := NewPlan(langs, Mode(99), en); err == nil {
		t.Error("unknown mode accepted")
	}
	// Direct mode does not require the hub to be present; it only orients.
	if _, err := NewPlan([]wiki.Language{pt, vi}, ModeDirect, en); err != nil {
		t.Errorf("direct without hub language: %v", err)
	}
}

// TestRunPivot checks the canonical pivot flow: Pt–En and Vi–En matched
// directly, Pt–Vi derived transitively through the English hub, with
// bottleneck confidences and vacuous agreement (no chain was attempted).
func TestRunPivot(t *testing.T) {
	f := &fakeMatcher{results: map[wiki.LanguagePair]*core.Result{
		wiki.PtEn: result(wiki.PtEn, "filme", "film", map[[2]string]float64{
			{"direção", "directed by"}: 0.9,
			{"elenco", "starring"}:     0.7,
		}),
		wiki.VnEn: result(wiki.VnEn, "phim", "film", map[[2]string]float64{
			{"đạo diễn", "directed by"}: 0.8,
		}),
	}}
	res, err := Run(context.Background(), f, []wiki.Language{en, pt, vi}, Options{Mode: ModePivot})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Outcomes) != 2 {
		t.Fatalf("outcomes: failed=%d n=%d", res.Failed, len(res.Outcomes))
	}
	if n := res.Outcome(wiki.PtEn).Correspondences(); n != 2 {
		t.Errorf("pt-en correspondences = %d, want 2", n)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 (directed-by, starring)", len(res.Clusters))
	}

	// The directed-by cluster spans all three languages.
	cl := res.Clusters[0]
	if len(cl.Members) != 3 || len(cl.Languages) != 3 {
		t.Fatalf("cluster 0: members=%v languages=%v", cl.Members, cl.Languages)
	}
	if cl.Agreement != 1 {
		t.Errorf("pivot agreement = %v, want vacuous 1", cl.Agreement)
	}
	if len(cl.Conflicts) != 0 {
		t.Errorf("pivot conflicts = %v, want none", cl.Conflicts)
	}
	var derived *Correspondence
	for i := range cl.Correspondences {
		c := &cl.Correspondences[i]
		if !c.Direct {
			derived = c
		} else if !c.Supported {
			// Direct hub edges have no corroborating chain, but they were
			// never checkable either.
			if c.Confidence != 0.9 && c.Confidence != 0.8 {
				t.Errorf("direct edge confidence = %v", c.Confidence)
			}
		}
	}
	if derived == nil {
		t.Fatal("no transitive pt-vi correspondence derived")
	}
	if derived.A.Lang != pt || derived.B.Lang != vi {
		t.Errorf("derived correspondence between %s and %s, want pt and vi", derived.A.Lang, derived.B.Lang)
	}
	if derived.Confidence != 0.8 {
		t.Errorf("bottleneck confidence = %v, want 0.8 (min of 0.9 and 0.8)", derived.Confidence)
	}
	if !derived.Supported {
		t.Error("transitive correspondence not marked supported")
	}

	// The starring cluster has only two members and no vi counterpart.
	if got := len(res.Clusters[1].Members); got != 2 {
		t.Errorf("cluster 1 members = %d, want 2", got)
	}

	// Induced projection: the pt-vi pair gets exactly the transitive pair.
	ind := res.Induced(wiki.LanguagePair{A: pt, B: vi})
	tp := [2]string{"filme", "phim"}
	if !ind[tp].Has("direção", "đạo diễn") || ind[tp].Pairs() != 1 {
		t.Errorf("induced pt-vi = %v", ind)
	}
	// And the reverse orientation flips sides.
	rev := res.Induced(wiki.LanguagePair{A: vi, B: pt})
	if !rev[[2]string{"phim", "filme"}].Has("đạo diễn", "direção") {
		t.Errorf("induced vi-pt = %v", rev)
	}
}

// TestRunDirectAgreement checks direct mode's triangle bookkeeping: a
// closed triangle supports its direct edges; a direct pair that aligned
// the types but missed a chain-implied correspondence is a conflict.
func TestRunDirectAgreement(t *testing.T) {
	ptVi := wiki.LanguagePair{A: pt, B: vi}
	f := &fakeMatcher{results: map[wiki.LanguagePair]*core.Result{
		wiki.PtEn: result(wiki.PtEn, "filme", "film", map[[2]string]float64{
			{"direção", "directed by"}: 0.9,
			{"elenco", "starring"}:     0.7,
		}),
		wiki.VnEn: result(wiki.VnEn, "phim", "film", map[[2]string]float64{
			{"đạo diễn", "directed by"}: 0.8,
			{"diễn viên", "starring"}:   0.6,
		}),
		// The direct Pt–Vi run closes the directed-by triangle but
		// misses the starring one.
		ptVi: result(ptVi, "filme", "phim", map[[2]string]float64{
			{"direção", "đạo diễn"}: 0.5,
		}),
	}}
	res, err := Run(context.Background(), f, []wiki.Language{en, pt, vi}, Options{Mode: ModeDirect})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(res.Clusters))
	}

	directedBy, starring := res.Clusters[0], res.Clusters[1]
	if directedBy.Agreement != 1 {
		t.Errorf("closed triangle agreement = %v, want 1", directedBy.Agreement)
	}
	if len(directedBy.Conflicts) != 0 {
		t.Errorf("closed triangle conflicts = %v", directedBy.Conflicts)
	}
	for _, c := range directedBy.Correspondences {
		if !c.Direct || !c.Supported {
			t.Errorf("triangle edge %v→%v: direct=%v supported=%v", c.A, c.B, c.Direct, c.Supported)
		}
	}

	// starring: pt-en and vi-en edges exist, pt-vi directly rejected.
	if len(starring.Conflicts) != 1 {
		t.Fatalf("starring conflicts = %v, want 1", starring.Conflicts)
	}
	conflict := starring.Conflicts[0]
	if conflict.A.Lang != pt || conflict.B.Lang != vi {
		t.Errorf("conflict between %s and %s, want pt and vi", conflict.A.Lang, conflict.B.Lang)
	}
	if conflict.Via.Lang != en {
		t.Errorf("conflict witness in %s, want en", conflict.Via.Lang)
	}
	// The two hub edges were checkable (chains through the third language
	// were attempted) and unsupported — agreement drops.
	if starring.Agreement != 0 {
		t.Errorf("starring agreement = %v, want 0", starring.Agreement)
	}
}

// TestRunDirectEmptyPair mirrors the real corpus: the direct Pt–Vi run
// succeeds with zero aligned types, so nothing is checkable and no
// conflicts are reported — the transitive derivation simply fills in.
func TestRunDirectEmptyPair(t *testing.T) {
	ptVi := wiki.LanguagePair{A: pt, B: vi}
	f := &fakeMatcher{results: map[wiki.LanguagePair]*core.Result{
		wiki.PtEn: result(wiki.PtEn, "filme", "film", map[[2]string]float64{{"direção", "directed by"}: 0.9}),
		wiki.VnEn: result(wiki.VnEn, "phim", "film", map[[2]string]float64{{"đạo diễn", "directed by"}: 0.8}),
		ptVi:      emptyResult(ptVi),
	}}
	res, err := Run(context.Background(), f, []wiki.Language{en, pt, vi}, Options{Mode: ModeDirect})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(res.Clusters))
	}
	cl := res.Clusters[0]
	if len(cl.Conflicts) != 0 {
		t.Errorf("conflicts = %v, want none (pt-vi aligned no types)", cl.Conflicts)
	}
	if cl.Agreement != 1 {
		t.Errorf("agreement = %v, want vacuous 1", cl.Agreement)
	}
}

// TestRunPairFailureIsolation: one failing pair is recorded and the rest
// of the batch still completes and clusters.
func TestRunPairFailureIsolation(t *testing.T) {
	boom := errors.New("boom")
	f := &fakeMatcher{
		results: map[wiki.LanguagePair]*core.Result{
			wiki.PtEn: result(wiki.PtEn, "filme", "film", map[[2]string]float64{{"direção", "directed by"}: 0.9}),
		},
		errs: map[wiki.LanguagePair]error{wiki.VnEn: boom},
	}
	res, err := Run(context.Background(), f, []wiki.Language{en, pt, vi}, Options{Mode: ModePivot})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Errorf("failed = %d, want 1", res.Failed)
	}
	if o := res.Outcome(wiki.VnEn); o == nil || !errors.Is(o.Err, boom) {
		t.Errorf("vi-en outcome = %+v", o)
	}
	if o := res.Outcome(wiki.PtEn); o == nil || o.Err != nil || o.Result == nil {
		t.Errorf("pt-en outcome = %+v", o)
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0].Members) != 2 {
		t.Errorf("clusters from surviving pair: %+v", res.Clusters)
	}
}

// TestStreamProgress checks the streaming surface: one update per pair
// with monotone Done, then the final update, then close.
func TestStreamProgress(t *testing.T) {
	f := &fakeMatcher{results: map[wiki.LanguagePair]*core.Result{
		wiki.PtEn: result(wiki.PtEn, "filme", "film", map[[2]string]float64{{"direção", "directed by"}: 0.9}),
		wiki.VnEn: result(wiki.VnEn, "phim", "film", map[[2]string]float64{{"đạo diễn", "directed by"}: 0.8}),
	}}
	updates, err := Stream(context.Background(), f, []wiki.Language{en, pt, vi}, Options{Mode: ModePivot, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var outcomes, finals int
	lastDone := 0
	for u := range updates {
		if u.Total != 2 {
			t.Errorf("update total = %d, want 2", u.Total)
		}
		if u.Outcome != nil {
			outcomes++
			if u.Done <= lastDone {
				t.Errorf("done not monotone: %d after %d", u.Done, lastDone)
			}
			lastDone = u.Done
		}
		if u.Final != nil {
			finals++
			if len(u.Final.Outcomes) != 2 {
				t.Errorf("final outcomes = %d", len(u.Final.Outcomes))
			}
		}
	}
	if outcomes != 2 || finals != 1 {
		t.Errorf("stream delivered %d outcomes, %d finals; want 2, 1", outcomes, finals)
	}
	// Workers=1 serializes the fake matcher.
	if f.maxInflight != 1 {
		t.Errorf("max inflight = %d with Workers=1", f.maxInflight)
	}
}

// TestRunCancelled: a cancelled context aborts the batch with its error.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fakeMatcher{results: map[wiki.LanguagePair]*core.Result{}}
	_, err := Run(ctx, f, []wiki.Language{en, pt, vi}, Options{Mode: ModePivot})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunPlanError: an unplannable language set fails up front.
func TestRunPlanError(t *testing.T) {
	f := &fakeMatcher{}
	if _, err := Run(context.Background(), f, []wiki.Language{en}, Options{}); err == nil {
		t.Error("single-language batch accepted")
	}
}

func TestBottleneckConfidence(t *testing.T) {
	a := Attr{Lang: pt, Type: "t", Name: "a"}
	h := Attr{Lang: en, Type: "t", Name: "h"}
	b := Attr{Lang: vi, Type: "t", Name: "b"}
	adj := map[Attr]map[Attr]float64{
		a: {h: 0.9},
		h: {a: 0.9, b: 0.4},
		b: {h: 0.4},
	}
	if got := clampConfidence(relaxBottlenecks(a, adj)[b]); got != 0.4 {
		t.Errorf("bottleneck = %v, want 0.4", got)
	}
	if got := clampConfidence(relaxBottlenecks(a, adj)[Attr{Lang: vi, Type: "t", Name: "absent"}]); got != 0 {
		t.Errorf("unreachable bottleneck = %v, want 0", got)
	}
}
