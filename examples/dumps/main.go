// Dumps: exercise the full byte-level pipeline — write the synthetic
// corpus to MediaWiki XML dumps on disk (one <lang>.xml per edition),
// ingest the directory back, and verify that matching from the
// reloaded corpus reproduces the in-memory correspondences.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	corpus, _, err := repro.GenerateCorpus(repro.SmallCorpus())
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "wikimatch-dumps-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	for _, lang := range corpus.Languages() {
		path := filepath.Join(dir, string(lang)+".xml")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.WriteDump(f, corpus, lang); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		info, _ := os.Stat(path)
		fmt.Printf("wrote %s (%.1f MB, %d articles)\n",
			path, float64(info.Size())/(1<<20), corpus.LenLang(lang))
	}

	ctx := context.Background()
	res, err := repro.IngestDir(ctx, dir, repro.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if tot := res.Totals(); tot.SkippedTotal() != 0 {
		log.Fatalf("ingest skipped %d units: %v", tot.SkippedTotal(), tot.Skipped)
	}
	reloaded := res.Corpus
	fmt.Printf("reloaded %d articles\n\n", reloaded.Len())

	// A session is bound to one corpus, so the in-memory original and the
	// reloaded copy each get their own.
	orig, err := repro.NewSession(corpus).Match(ctx, repro.VnEn)
	if err != nil {
		log.Fatal(err)
	}
	again, err := repro.NewSession(reloaded).Match(ctx, repro.VnEn)
	if err != nil {
		log.Fatal(err)
	}
	for _, tp := range orig.Types {
		a := orig.PerType[tp].CrossPairsSorted()
		b := again.PerType[tp].CrossPairsSorted()
		same := len(a) == len(b)
		if same {
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		fmt.Printf("%-28s %d correspondences, identical after round-trip: %v\n", tp[0], len(a), same)
		if !same {
			log.Fatal("round-trip changed the matching result")
		}
	}
}
