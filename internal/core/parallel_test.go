package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/wiki"
)

// TestParallelMatchEqualsSequential pins down that the concurrent
// per-type fan-out in Match changes nothing observable: the result must
// be identical to what a single-worker run produces.
func TestParallelMatchEqualsSequential(t *testing.T) {
	c, _ := corpus(t)
	m := NewMatcher(DefaultConfig())

	parallel := m.Match(c, wiki.PtEn)

	old := runtime.GOMAXPROCS(1)
	sequential := m.Match(c, wiki.PtEn)
	runtime.GOMAXPROCS(old)

	if len(parallel.Types) != len(sequential.Types) {
		t.Fatalf("type counts differ: %d vs %d", len(parallel.Types), len(sequential.Types))
	}
	for _, tp := range parallel.Types {
		a := parallel.PerType[tp].CrossPairsSorted()
		b := sequential.PerType[tp].CrossPairsSorted()
		if len(a) != len(b) {
			t.Fatalf("type %v: %d vs %d pairs", tp, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("type %v pair %d: %v vs %v", tp, i, a[i], b[i])
			}
		}
	}
}

// TestMatchCtxAligned: alignments handed in through Aligned are used as
// they are, Align runs only for the missing ones, and with none missing
// MatchCtx calls Align not at all.
func TestMatchCtxAligned(t *testing.T) {
	c, _ := corpus(t)
	m := NewMatcher(DefaultConfig())
	ctx := context.Background()
	full := m.Match(c, wiki.PtEn)
	n := len(full.Types)
	if n < 2 {
		t.Fatalf("need at least two types, got %d", n)
	}
	aligned := make([]*TypeResult, n)
	for i, tp := range full.Types {
		aligned[i] = full.PerType[tp]
	}
	for _, missing := range []int{-1, n / 2} {
		have := append([]*TypeResult(nil), aligned...)
		if missing >= 0 {
			have[missing] = nil
		}
		var mu sync.Mutex
		var called []int
		res, err := m.MatchCtx(ctx, c, wiki.PtEn, &MatchArtifacts{
			Types: full.Types, Dict: full.Dict, HaveDict: true, Aligned: have,
			Align: func(_ context.Context, i int) (*TypeResult, error) {
				mu.Lock()
				called = append(called, i)
				mu.Unlock()
				return aligned[i], nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []int(nil)
		if missing >= 0 {
			want = []int{missing}
		}
		if len(called) != len(want) || (len(want) == 1 && called[0] != want[0]) {
			t.Errorf("missing %d: Align called for %v, want %v", missing, called, want)
		}
		for i, tp := range full.Types {
			if res.PerType[tp] != aligned[i] {
				t.Errorf("missing %d: type %v is not the handed-in alignment", missing, tp)
			}
		}
		if len(res.TypeList) != n {
			t.Errorf("missing %d: TypeList has %d types, want %d", missing, len(res.TypeList), n)
		}
	}
}

// TestScorePairsCoversEveryIndexOnce drives the chunked worker pool of
// the pair-scoring stage directly: every index in [0, n) must be visited
// exactly once, for sizes on both sides of the parallelism threshold.
func TestScorePairsCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 511, 512, 513, 5000} {
		var mu sync.Mutex
		visits := make([]int, n)
		err := scorePairsCtx(context.Background(), n, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				visits[i]++
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestScorePairsCtxCancelled checks that a dead context stops the chunked
// scoring loop without visiting every index.
func TestScorePairsCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	var mu sync.Mutex
	err := scorePairsCtx(ctx, 5000, func(lo, hi int) {
		mu.Lock()
		visited += hi - lo
		mu.Unlock()
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited == 5000 {
		t.Error("cancelled scorePairsCtx still visited every index")
	}
}
