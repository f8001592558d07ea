package repro

// One benchmark per table and figure of the paper's evaluation: each
// iteration regenerates the experiment's rows/series from the shared
// corpus (see cmd/benchall for the pretty-printed output). The cheap
// single-pass experiments run at full corpus scale; the multi-variant
// sweeps (Table 3, Figures 3 and 5) run at small scale so a full
// `go test -bench=.` stays in tens of seconds.
//
// Additional ablation benchmarks cover two choices inside the paper's
// similarity measures (Section 3.2: dictionary translation inside vsim,
// the LSI rank f) and the substrate hot paths (SVD, dump parsing, one
// full type alignment).

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/lsi"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	onceFull, onceSmall   sync.Once
	setupFull, setupSmall *experiments.Setup
)

func fullSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	onceFull.Do(func() {
		s, err := experiments.NewSetup(synth.DefaultConfig())
		if err != nil {
			b.Fatalf("setup: %v", err)
		}
		setupFull = s
	})
	return setupFull
}

func smallSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	onceSmall.Do(func() {
		s, err := experiments.NewSetup(synth.SmallConfig())
		if err != nil {
			b.Fatalf("setup: %v", err)
		}
		setupSmall = s
	})
	return setupSmall
}

func BenchmarkTable1Alignments(b *testing.B) {
	s := fullSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table1(cfg)
		if len(rows) == 0 {
			b.Fatal("no alignments")
		}
	}
}

func BenchmarkTable2Effectiveness(b *testing.B) {
	s := fullSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	var avgF float64
	for i := 0; i < b.N; i++ {
		rows := s.Table2(cfg)
		for _, r := range rows {
			if r.Canon == "Avg" && r.Pair == wiki.PtEn {
				avgF = r.WikiMatch.F
			}
		}
	}
	b.ReportMetric(avgF, "F/pt-en-avg")
}

func BenchmarkTable3Ablation(b *testing.B) {
	s := smallSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table3(cfg)
		if len(rows) != 13 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable5Overlap(b *testing.B) {
	s := fullSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table5()
		if len(rows) != 14 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable6Macro(b *testing.B) {
	s := fullSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table6(cfg)
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable7MAP(b *testing.B) {
	s := fullSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	var lsiMAP float64
	for i := 0; i < b.N; i++ {
		rows := s.Table7(cfg, s.Cfg.Seed)
		lsiMAP = rows[0].PtEn
	}
	b.ReportMetric(lsiMAP, "MAP/lsi-pt-en")
}

func BenchmarkFigure3ReviseImpact(b *testing.B) {
	s := smallSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bars := s.Figure3(cfg)
		if len(bars) != 6 {
			b.Fatalf("bars = %d", len(bars))
		}
	}
}

func BenchmarkFigure4CumulativeGain(b *testing.B) {
	s := fullSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	var ptEnCG float64
	for i := 0; i < b.N; i++ {
		series, err := s.Figure4(cfg, 20)
		if err != nil {
			b.Fatal(err)
		}
		for _, sr := range series {
			if sr.Name == "Pt→En" {
				ptEnCG = sr.CG[len(sr.CG)-1]
			}
		}
	}
	b.ReportMetric(ptEnCG, "CG/pt-en@20")
}

func BenchmarkFigure5Thresholds(b *testing.B) {
	s := smallSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := s.Figure5(cfg)
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure6LSITopK(b *testing.B) {
	s := fullSetup(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Figure6(cfg)
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure7COMAConfigs(b *testing.B) {
	s := fullSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Figure7()
		if len(rows) != 12 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationDictionary quantifies the dictionary's contribution
// to vsim (the paper's Section 3.2): full WikiMatch vs NoDictionary.
func BenchmarkAblationDictionary(b *testing.B) {
	s := smallSetup(b)
	for _, mode := range []struct {
		name string
		mod  func(*core.Config)
	}{
		{"with-dict", func(*core.Config) {}},
		{"no-dict", func(c *core.Config) { c.NoDictionary = true }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			mode.mod(&cfg)
			var f float64
			for i := 0; i < b.N; i++ {
				var sum float64
				n := 0
				for _, tc := range s.Cases(wiki.PtEn) {
					sum += s.EvaluateWeighted(tc, s.RunWikiMatch(tc, cfg)).F
					n++
				}
				f = sum / float64(n)
			}
			b.ReportMetric(f, "F/pt-en-avg")
		})
	}
}

// BenchmarkAblationLSIRank sweeps the truncated-SVD rank, the paper's f
// (Section 3.2; README "The fast-LSI substrate").
func BenchmarkAblationLSIRank(b *testing.B) {
	s := smallSetup(b)
	for _, rank := range []int{2, 5, 10, 20, 40} {
		b.Run(rankName(rank), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.LSIRank = rank
			var f float64
			for i := 0; i < b.N; i++ {
				var sum float64
				n := 0
				for _, tc := range s.Cases(wiki.PtEn) {
					sum += s.EvaluateWeighted(tc, s.RunWikiMatch(tc, cfg)).F
					n++
				}
				f = sum / float64(n)
			}
			b.ReportMetric(f, "F/pt-en-avg")
		})
	}
}

func rankName(r int) string {
	return "rank-" + string(rune('0'+r/10)) + string(rune('0'+r%10))
}

// ---------------------------------------------------------------- substrate

// biggestDuals returns the largest dual-language infobox set across the
// full-scale corpus — the occurrence matrix WikiMatch actually has to
// decompose on its hottest type.
func biggestDuals(b *testing.B) []lsi.Dual {
	b.Helper()
	s := fullSetup(b)
	var duals []lsi.Dual
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		for _, tc := range s.Cases(pair) {
			if len(tc.TD.Duals) > len(duals) {
				duals = tc.TD.Duals
			}
		}
	}
	return duals
}

// BenchmarkTruncatedSVD compares the seed's dense-Jacobi-then-truncate
// path against the sparse randomized path on the full-corpus occurrence
// matrix (the acceptance gate for the fast-LSI swap is ≥2× here).
func BenchmarkTruncatedSVD(b *testing.B) {
	duals := biggestDuals(b)
	_, index := lsi.IndexAttrs(duals)
	sp := lsi.OccurrenceMatrix(duals, index)
	svdComparison(b, sp)
}

// svdComparison benchmarks the seed's dense path against the sparse
// subsystem on one occurrence matrix: "sparse-auto" is what lsi.Build
// calls (routing to Gram-exact or randomized by shape) and
// "randomized-sparse" forces the sketch-and-iterate path.
func svdComparison(b *testing.B, sp *linalg.Sparse) {
	b.Helper()
	dense := sp.Dense()
	b.Run("dense-jacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := linalg.TruncatedSVD(dense, lsi.DefaultRank); d.Rank() != lsi.DefaultRank {
				b.Fatal("bad rank")
			}
		}
	})
	b.Run("sparse-auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := linalg.SparseTruncatedSVD(sp, lsi.DefaultRank); d.Rank() != lsi.DefaultRank {
				b.Fatal("bad rank")
			}
		}
	})
	b.Run("randomized-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := linalg.RandomizedSVD(sp, lsi.DefaultRank, linalg.RSVDOptions{}); d.Rank() != lsi.DefaultRank {
				b.Fatal("bad rank")
			}
		}
	})
}

// BenchmarkTruncatedSVDDumpScale runs the same comparison on a
// dump-scale occurrence matrix (hundreds of attributes over thousands of
// dual infoboxes, ~4% dense) where the asymptotic gap dominates.
func BenchmarkTruncatedSVDDumpScale(b *testing.B) {
	const (
		attrs   = 200
		duals   = 1500
		perDual = 8
	)
	var entries []linalg.Entry
	state := uint64(1)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for j := 0; j < duals; j++ {
		for t := 0; t < perDual; t++ {
			entries = append(entries, linalg.Entry{Row: next(attrs), Col: j, Val: 1})
		}
	}
	sp := linalg.NewSparse(attrs, duals, entries)
	svdComparison(b, sp)
}

func BenchmarkSVD(b *testing.B) {
	m := linalg.NewMatrix(60, 300)
	for i := range m.Data {
		m.Data[i] = float64((i*2654435761)%7) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := linalg.TruncatedSVD(m, 10)
		if d.Rank() != 10 {
			b.Fatal("bad rank")
		}
	}
}

func BenchmarkLSIBuild(b *testing.B) {
	s := fullSetup(b)
	var tc = s.Cases(wiki.PtEn)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := lsi.Build(tc.TD.Duals, 10, tc.TD.Attrs...)
		if model.Len() == 0 {
			b.Fatal("empty model")
		}
	}
}

func BenchmarkWikiMatchFilmType(b *testing.B) {
	s := fullSetup(b)
	m := core.NewMatcher(core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := m.MatchType(s.Corpus, wiki.PtEn, "filme", "film", s.Dict(wiki.PtEn))
		if len(tr.Cross) == 0 {
			b.Fatal("no correspondences")
		}
	}
}

// BenchmarkSessionWarmVsCold is the acceptance gate for the session's
// artifact cache, run per pair: "cold" pays the full pipeline
// (dictionary, TypeData, truncated SVD per type, Algorithm 1) on a fresh
// session every iteration, "warm" reuses one prewarmed session so each
// Match looks up the memoized per-type results. CI holds warm at ≥2×
// faster than cold on every pair; the service tests assert the results
// are byte-identical.
func BenchmarkSessionWarmVsCold(b *testing.B) {
	s := fullSetup(b)
	ctx := context.Background()
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		b.Run(pair.String(), func(b *testing.B) {
			b.Run("cold", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := NewSession(s.Corpus).Match(ctx, pair)
					if err != nil || len(res.Types) == 0 {
						b.Fatalf("cold match: %v (%d types)", err, len(res.Types))
					}
				}
			})
			b.Run("warm", func(b *testing.B) {
				sess := NewSession(s.Corpus)
				if _, err := sess.Match(ctx, pair); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := sess.Match(ctx, pair)
					if err != nil || len(res.Types) == 0 {
						b.Fatalf("warm match: %v (%d types)", err, len(res.Types))
					}
				}
			})
		})
	}
}

// BenchmarkStoreRestoreVsCold is the persistence acceptance gate:
// "cold" builds every artifact from the corpus (dictionaries, entity-
// type alignments, per-type TypeData and LSI models for both of the
// paper's pairs), "restore" loads the same artifacts from a snapshot —
// the path wikimatchd -store takes on boot. Snapshot load must be ≥5×
// faster than the cold build at dump scale (measured ~10×), and
// restored sessions serve byte-identical results (asserted by
// TestRestoreMatchEquivalence in internal/service).
func BenchmarkStoreRestoreVsCold(b *testing.B) {
	s := fullSetup(b)
	ctx := context.Background()
	pairs := []wiki.LanguagePair{wiki.PtEn, wiki.VnEn}
	matchAll := func(b *testing.B, sess *Session) {
		b.Helper()
		for _, pair := range pairs {
			res, err := sess.Match(ctx, pair)
			if err != nil || len(res.Types) == 0 {
				b.Fatalf("match %s: %v (%d types)", pair, err, len(res.Types))
			}
		}
	}

	warm := NewSession(s.Corpus)
	matchAll(b, warm)
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matchAll(b, NewSession(s.Corpus))
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			sess, err := service.Restore(s.Corpus, bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if cs := sess.CacheStats(); cs.RestoredTypes == 0 {
				b.Fatal("nothing restored")
			}
		}
	})
	b.Run("restore+match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess, err := service.Restore(s.Corpus, bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			matchAll(b, sess)
		}
	})
}

func BenchmarkDumpWriteParse(b *testing.B) {
	s := smallSetup(b)
	var buf bytes.Buffer
	if err := dump.WriteCorpus(&buf, s.Corpus, wiki.Portuguese); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := dump.NewReader(bytes.NewReader(raw))
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n == 0 {
			b.Fatal("no pages")
		}
	}
}

// BenchmarkHTTPMatchThroughput measures the serving path end to end
// over wire protocol v1: a real HTTP server (middleware stack included)
// over one warm session, driven concurrently by the client SDK. Each
// iteration is a full POST /v1/match round trip whose alignment runs on
// cached artifacts — the steady-state request wikimatchd serves under
// load. perfbench's match-warm workload times the same request end to
// end under closed-loop load.
func BenchmarkHTTPMatchThroughput(b *testing.B) {
	s := smallSetup(b)
	srv := httptest.NewServer(NewHTTPHandler(NewSession(s.Corpus)))
	defer srv.Close()
	c, err := NewAPIClient(srv.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := MatchRequest{Pair: "pt-en"}
	warm, err := c.Match(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	if len(warm.Types) == 0 {
		b.Fatal("warm match returned no types")
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := c.Match(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Results) != len(warm.Results) {
				b.Fatalf("response lost results: %d vs %d", len(resp.Results), len(warm.Results))
			}
		}
	})
}
