package audit_test

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/synth"
	"repro/internal/wiki"
)

// corpusMatcher adapts a core.Matcher over a fixed corpus to the
// multi.PairMatcher interface the batch runner wants.
type corpusMatcher struct {
	c *wiki.Corpus
	m *core.Matcher
}

func (cm corpusMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	return cm.m.MatchCtx(ctx, cm.c, pair)
}

// buildClusters runs the full pivot-mode batch match over the corpus and
// assembles correspondence clusters.
func buildClusters(t testing.TB, c *wiki.Corpus) []multi.Cluster {
	t.Helper()
	cm := corpusMatcher{c: c, m: core.NewMatcher(core.DefaultConfig())}
	batch, err := multi.Run(context.Background(), cm, c.Languages(), multi.Options{Mode: multi.ModePivot})
	if err != nil {
		t.Fatalf("multi.Run: %v", err)
	}
	return multi.BuildClusters(batch.Plan, batch.Outcomes)
}

// TestAuditDetectsInjectedInconsistencies is the subsystem's acceptance
// bar: on a synthetic corpus with a known injection ledger, the detector
// must reach 0.85 precision and 0.90 recall.
func TestAuditDetectsInjectedInconsistencies(t *testing.T) {
	if testing.Short() {
		t.Skip("full pivot match in -short mode")
	}
	corpus, truth, err := synth.Generate(synth.AuditEvalConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(truth.Injected) == 0 {
		t.Fatal("AuditEvalConfig produced no injections")
	}
	clusters := buildClusters(t, corpus)
	report := audit.Run(corpus, clusters, audit.Options{})
	if report.Entities == 0 || report.Compared == 0 {
		t.Fatalf("degenerate report: %+v", report)
	}

	const minSeverity = 0.5
	res := audit.Evaluate(report.Findings, truth, minSeverity)
	t.Logf("injected=%d findings=%d TP=%d FP=%d missed=%d precision=%.3f recall=%.3f",
		len(truth.Injected), len(report.Findings), res.TP, res.FP, res.Missed, res.Precision, res.Recall)
	if res.Precision < 0.85 {
		t.Errorf("precision = %.3f, want >= 0.85", res.Precision)
	}
	if res.Recall < 0.90 {
		t.Errorf("recall = %.3f, want >= 0.90", res.Recall)
	}
}

// TestAuditReadsEnglishDatesWhole: an English "Month D, YYYY" value is
// one date atom, so a day or month disagreement with another edition is
// a contradiction, not hidden behind a matching year.
func TestAuditReadsEnglishDatesWhole(t *testing.T) {
	en := multi.Attr{Lang: wiki.English, Type: "film", Name: "release date"}
	pt := multi.Attr{Lang: wiki.Portuguese, Type: "filme", Name: "lancamento"}
	clusters := []multi.Cluster{{
		Members:         []multi.Attr{en, pt},
		Correspondences: []multi.Correspondence{{A: en, B: pt, Confidence: 1, Direct: true}},
	}}
	for _, ptDate := range []string{"19 de dezembro de 1950", "18 de março de 1950"} {
		c := wiki.NewCorpus()
		c.MustAdd(&wiki.Article{Language: wiki.English, Title: "The Film", Type: "film",
			Infobox:    &wiki.Infobox{Attrs: []wiki.AttributeValue{{Name: "release date", Text: "December 18, 1950"}}},
			CrossLinks: map[wiki.Language]string{wiki.Portuguese: "O Filme"}})
		c.MustAdd(&wiki.Article{Language: wiki.Portuguese, Title: "O Filme", Type: "filme",
			Infobox:    &wiki.Infobox{Attrs: []wiki.AttributeValue{{Name: "lançamento", Text: ptDate}}},
			CrossLinks: map[wiki.Language]string{wiki.English: "The Film"}})
		report := audit.Run(c, clusters, audit.Options{})
		if len(report.Findings) != 1 || report.Findings[0].Kind != audit.Contradiction {
			t.Errorf("December 18, 1950 vs %q: findings %+v, want one contradiction", ptDate, report.Findings)
		}
	}
}

// TestAuditCleanCorpusQuiet: with no noise and no injections, no
// high-severity value disagreements should survive.
func TestAuditCleanCorpusQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("full pivot match in -short mode")
	}
	cfg := synth.AuditEvalConfig()
	cfg.InjectNumberProb = 0
	cfg.InjectDateProb = 0
	cfg.InjectUnitProb = 0
	cfg.InjectDropProb = 0
	corpus, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	clusters := buildClusters(t, corpus)
	report := audit.Run(corpus, clusters, audit.Options{MinSeverity: 0.5})
	for _, f := range report.Findings {
		if f.Kind != audit.Missing {
			t.Errorf("clean corpus produced %s finding (severity %.2f): %s", f.Kind, f.Severity, f.Detail)
		}
	}
}

// TestAuditDeterministic: the report is the same whole, field for field,
// under any GOMAXPROCS and any cluster and member order (reversing the
// clusters renumbers them, so the check maps ids back and restores the
// ranking's cluster tie-break).
func TestAuditDeterministic(t *testing.T) {
	corpus, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	clusters := buildClusters(t, corpus)
	want := audit.Run(corpus, clusters, audit.Options{})
	if len(want.Findings) == 0 {
		t.Fatal("no findings to compare")
	}
	reversed := slices.Clone(clusters)
	slices.Reverse(reversed)
	for i := range reversed {
		reversed[i].Members = slices.Clone(reversed[i].Members)
		slices.Reverse(reversed[i].Members)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := audit.Run(corpus, clusters, audit.Options{}); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: report differs from the default run", procs)
		}
		got := audit.Run(corpus, reversed, audit.Options{})
		for i := range got.Findings {
			got.Findings[i].Cluster = len(clusters) - 1 - got.Findings[i].Cluster
		}
		sort.Slice(got.Findings, func(i, j int) bool {
			x, y := &got.Findings[i], &got.Findings[j]
			if x.Severity != y.Severity {
				return x.Severity > y.Severity
			}
			if x.Entity != y.Entity {
				return x.Entity < y.Entity
			}
			return x.Cluster < y.Cluster
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: report over reversed clusters differs", procs)
		}
	}
}

func TestAuditOptions(t *testing.T) {
	corpus, _, err := synth.Generate(synth.AuditEvalConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	clusters := buildClusters(t, corpus)
	full := audit.Run(corpus, clusters, audit.Options{})
	limited := audit.Run(corpus, clusters, audit.Options{Limit: 3})
	if len(limited.Findings) > 3 {
		t.Errorf("limit ignored: %d findings", len(limited.Findings))
	}
	gated := audit.Run(corpus, clusters, audit.Options{MinSeverity: 0.9})
	for _, f := range gated.Findings {
		if f.Severity < 0.9 {
			t.Errorf("severity gate ignored: %.3f", f.Severity)
		}
	}
	// Ranking: severity non-increasing.
	for i := 1; i < len(full.Findings); i++ {
		if full.Findings[i].Severity > full.Findings[i-1].Severity {
			t.Errorf("findings not ranked at %d", i)
		}
	}
}

func BenchmarkAuditRun(b *testing.B) {
	corpus, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	clusters := buildClusters(b, corpus)
	for b.Loop() {
		audit.Run(corpus, clusters, audit.Options{})
	}
}
