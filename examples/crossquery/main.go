// Crossquery: the Section 5 case study. Run the Table 4 workload in
// Portuguese and Vietnamese, translate each query into English through
// WikiMatch's derived correspondences, and compare the cumulative gain
// of the monolingual and translated answers (Figure 4).
//
// Both language pairs are matched off one shared session: the Pt–En and
// Vn–En runs reuse the session's cached artifacts, and a repeated Pt–En
// match shows the warm-path speedup.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	corpus, truth, err := repro.GenerateCorpus(repro.SmallCorpus())
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	session := repro.NewSession(corpus)

	start := time.Now()
	resPt, err := session.Match(ctx, repro.PtEn)
	if err != nil {
		log.Fatal(err)
	}
	coldPt := time.Since(start)

	resVn, err := session.Match(ctx, repro.VnEn)
	if err != nil {
		log.Fatal(err)
	}

	// The session has now cached both pairs' dictionaries, per-type LSI
	// models and per-type alignments; matching Pt–En again is a lookup.
	start = time.Now()
	if _, err := session.Match(ctx, repro.PtEn); err != nil {
		log.Fatal(err)
	}
	warmPt := time.Since(start)
	st := session.CacheStats()
	fmt.Printf("session: pt-en cold %v, warm %v (%.1fx); cache %d type entries, %d hits\n\n",
		coldPt.Round(time.Millisecond), warmPt.Round(time.Millisecond),
		float64(coldPt)/float64(warmPt), st.TypeEntries, st.Hits)

	// Show one query's journey across languages.
	q, err := repro.ParseQuery(`artista(nome=?, origem="França", gênero="Jazz")`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query (pt):", q)
	tr := repro.TranslateQuery(q, resPt)
	fmt.Println("translated:", tr.Query)
	if len(tr.RelaxedAttrs) > 0 {
		fmt.Println("relaxed constraints:", tr.RelaxedAttrs)
	}

	ptEngine := repro.NewQueryEngine(corpus, repro.Portuguese)
	enEngine := repro.NewQueryEngine(corpus, repro.English)
	fmt.Printf("\nmonolingual answers (pt): %d\n", len(ptEngine.Run(q, 20)))
	fmt.Printf("translated answers (en):  %d\n", len(enEngine.Run(tr.Query, 20)))

	// Full case study.
	series, err := repro.CaseStudy(corpus, truth, resPt, resVn, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncumulative gain over the Table 4 workload:")
	fmt.Printf("%-4s", "k")
	for _, s := range series {
		fmt.Printf(" %8s", s.Name)
	}
	fmt.Println()
	for _, k := range []int{1, 5, 10, 20} {
		fmt.Printf("%-4d", k)
		for _, s := range series {
			fmt.Printf(" %8.1f", s.CG[k-1])
		}
		fmt.Println()
	}
}
