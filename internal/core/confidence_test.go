package core

import (
	"maps"
	"sync"
	"testing"

	"repro/internal/text"
	"repro/internal/wiki"
)

func TestConfidenceBounds(t *testing.T) {
	c, _ := corpus(t)
	res := NewMatcher(DefaultConfig()).Match(c, wiki.PtEn)
	for _, tr := range res.PerType {
		for pair, conf := range tr.Confidences() {
			if conf <= 0 || conf > 1 {
				t.Fatalf("confidence(%v) = %v out of (0, 1]", pair, conf)
			}
		}
	}
}

func TestConfidenceCoversAllDerivedPairs(t *testing.T) {
	c, _ := corpus(t)
	res := NewMatcher(DefaultConfig()).Match(c, wiki.PtEn)
	tr, ok := res.ByTypeA("filme")
	if !ok {
		t.Fatal("no film result")
	}
	for a, bs := range tr.Cross {
		for b := range bs {
			if tr.Confidence(a, b) == 0 {
				t.Errorf("derived pair (%s, %s) has zero confidence", a, b)
			}
		}
	}
}

func TestConfidenceZeroForUnderived(t *testing.T) {
	c, _ := corpus(t)
	res := NewMatcher(DefaultConfig()).Match(c, wiki.PtEn)
	tr, _ := res.ByTypeA("filme")
	if got := tr.Confidence("no such", "pair"); got != 0 {
		t.Errorf("confidence of underived pair = %v", got)
	}
}

func TestCertainPairsScoreHigherThanTransitive(t *testing.T) {
	c, _ := corpus(t)
	res := NewMatcher(DefaultConfig()).Match(c, wiki.PtEn)
	tr, _ := res.ByTypeA("filme")
	// direção ~ directed by is a high-evidence certain pair; it should be
	// among the most confident correspondences of the type.
	target := tr.Confidence(text.Normalize("direção"), "directed by")
	if target == 0 {
		t.Fatal("direção ~ directed by not derived")
	}
	higher := 0
	total := 0
	for _, conf := range tr.Confidences() {
		total++
		if conf > target {
			higher++
		}
	}
	if higher > total/2 {
		t.Errorf("direção ~ directed by confidence (%.2f) ranks low: %d/%d pairs above it",
			target, higher, total)
	}
}

// TestConfidenceConcurrentReaders shares one fresh result between many
// goroutines that all ask for confidences at once, as requests served
// from a memoized result do. The lazy build must happen once, race-free
// (run under -race), and every reader must see the serial values.
func TestConfidenceConcurrentReaders(t *testing.T) {
	c, _ := corpus(t)
	m := NewMatcher(DefaultConfig())
	res := m.Match(c, wiki.PtEn)
	want, _ := res.ByTypeA("filme")
	wantConf := want.Confidences()
	if len(wantConf) == 0 {
		t.Fatal("filme derived no pairs")
	}

	shared := m.MatchType(c, wiki.PtEn, want.TypeA, want.TypeB, res.Dict)
	const readers = 16
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if got := shared.Confidences(); !maps.Equal(got, wantConf) {
					t.Errorf("reader %d: Confidences differ from the serial result", g)
				}
				return
			}
			for pair, conf := range wantConf {
				if got := shared.Confidence(pair[0], pair[1]); got != conf {
					t.Errorf("reader %d: Confidence(%v) = %v, want %v", g, pair, got, conf)
				}
			}
		}(g)
	}
	wg.Wait()
}
