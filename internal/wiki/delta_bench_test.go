package wiki_test

import (
	"fmt"
	"testing"

	"repro/internal/synth"
	"repro/internal/wiki"
)

// BenchmarkWithDelta times one value edit applied copy-on-write to the
// 12-edition corpus at two sizes: 80 entities per type (2,889 articles)
// and ten times that (19,402 articles). Each op edits one attribute
// value of a Portuguese article or restores it, chaining each derived
// corpus into the next op. A value edit copies its language's and
// type's article lists and makes no pass over the corpus, so the larger
// size costs about twice the smaller, not the 6.7x its article count
// would give; CI fails when it costs more than four times.
func BenchmarkWithDelta(b *testing.B) {
	for _, entities := range []int{80, 800} {
		b.Run(fmt.Sprintf("entities=%d", entities), func(b *testing.B) {
			cfg := synth.DefaultEditions()
			cfg.EntitiesPerType = entities
			c, _, err := synth.Editions(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var a *wiki.Article
			for _, x := range c.Articles(wiki.Portuguese) {
				if x.Infobox != nil && x.Infobox.Len() > 0 {
					a = x
					break
				}
			}
			if a == nil {
				b.Fatal("no Portuguese infobox article")
			}
			changed := a.Clone()
			changed.Infobox.Attrs[0].Text += " (editado)"
			edits := [2]wiki.Delta{
				{Upserts: []*wiki.Article{changed}},
				{Upserts: []*wiki.Article{a.Clone()}},
			}
			orig := c.Fingerprint()
			b.ReportAllocs()
			i := 0
			for ; b.Loop(); i++ {
				if c, _, err = c.WithDelta(edits[i%2]); err != nil {
					b.Fatal(err)
				}
			}
			if i%2 == 0 && c.Fingerprint() != orig {
				b.Fatalf("%d ops left fingerprint %016x, want %016x", i, c.Fingerprint(), orig)
			}
		})
	}
}
