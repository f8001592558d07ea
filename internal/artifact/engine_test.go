package artifact

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wiki"
)

func TestKeyDeps(t *testing.T) {
	pk := PairKey(wiki.PtEn)
	deps := pk.Deps()
	if len(deps) != 2 || deps[0] != CorpusKey(wiki.Portuguese) || deps[1] != CorpusKey(wiki.English) {
		t.Fatalf("pair deps = %v", deps)
	}
	tk := TypeKey(wiki.PtEn, "film", "filme")
	deps = tk.Deps()
	if len(deps) != 1 || deps[0] != pk {
		t.Fatalf("type deps = %v", deps)
	}
	if deps := CorpusKey(wiki.English).Deps(); deps != nil {
		t.Fatalf("corpus deps = %v", deps)
	}
}

func TestGetSingleFlight(t *testing.T) {
	e := NewEngine()
	key := PairKey(wiki.PtEn)
	var builds atomic.Int32
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
				builds.Add(1)
				<-release
				return "artifact", nil
			})
			if err != nil {
				t.Errorf("get: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (single-flight)", got)
	}
	for i, v := range results {
		if v != "artifact" {
			t.Fatalf("results[%d] = %v", i, v)
		}
	}
	s := e.Stats()
	if s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", s.Hits, s.Misses, n-1)
	}
}

func TestFailedBuildCountsFailureNotMiss(t *testing.T) {
	e := NewEngine()
	key := PairKey(wiki.PtEn)
	boom := errors.New("boom")
	if _, err := e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	s := e.Stats()
	if s.Misses != 0 || s.Failures != 1 {
		t.Fatalf("misses/failures = %d/%d, want 0/1", s.Misses, s.Failures)
	}
	if s.Entries[KindPair] != 0 {
		t.Fatalf("failed build left an entry behind")
	}
	ns := e.NodeStats(key)
	if ns.Failures != 1 || ns.Builds != 0 {
		t.Fatalf("node stats = %+v", ns)
	}
	// The next request rebuilds cleanly.
	v, err := e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("rebuild = %v, %v", v, err)
	}
	if s := e.Stats(); s.Misses != 1 {
		t.Fatalf("misses after rebuild = %d, want 1", s.Misses)
	}
}

func TestTransitiveInvalidation(t *testing.T) {
	e := NewEngine()
	bg := context.Background()
	build := func(v any) BuildFunc { return func(context.Context) (any, error) { return v, nil } }

	mustGet := func(k Key) {
		t.Helper()
		if _, err := e.Get(bg, k, 0, build(k.String())); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(PairKey(wiki.PtEn))
	mustGet(PairKey(wiki.VnEn))
	mustGet(TypeKey(wiki.PtEn, "film", "filme"))
	mustGet(TypeKey(wiki.PtEn, "city", "cidade"))
	mustGet(TypeKey(wiki.VnEn, "film", "phim"))

	// Invalidating Vietnamese must drop vi-en and its type, nothing else.
	dropped := e.Invalidate(CorpusKey(wiki.Vietnamese))
	if dropped[KindPair] != 1 || dropped[KindType] != 1 {
		t.Fatalf("dropped = %v, want 1 pair + 1 type", dropped)
	}
	s := e.Stats()
	if s.Entries[KindPair] != 1 || s.Entries[KindType] != 2 {
		t.Fatalf("entries after invalidate = %v", s.Entries)
	}
	if _, ok := e.Value(PairKey(wiki.PtEn)); !ok {
		t.Fatal("pt-en pair should have survived")
	}
	if _, ok := e.Value(PairKey(wiki.VnEn)); ok {
		t.Fatal("vi-en pair should be gone")
	}

	// Invalidating a pair node drops its types but not the pair's siblings.
	dropped = e.Invalidate(PairKey(wiki.PtEn))
	if dropped[KindPair] != 1 || dropped[KindType] != 2 {
		t.Fatalf("dropped = %v, want 1 pair + 2 types", dropped)
	}
	if s := e.Stats(); s.Entries[KindPair] != 0 || s.Entries[KindType] != 0 {
		t.Fatalf("entries = %v, want empty", s.Entries)
	}
}

func TestInvalidateAll(t *testing.T) {
	e := NewEngine()
	bg := context.Background()
	for _, k := range []Key{PairKey(wiki.PtEn), TypeKey(wiki.PtEn, "a", "b")} {
		if _, err := e.Get(bg, k, 0, func(context.Context) (any, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	dropped := e.InvalidateAll()
	if dropped[KindPair] != 1 || dropped[KindType] != 1 {
		t.Fatalf("dropped = %v", dropped)
	}
	if s := e.Stats(); len(s.Entries) != 0 {
		t.Fatalf("entries = %v", s.Entries)
	}
}

func TestSeedRestores(t *testing.T) {
	e := NewEngine()
	key := PairKey(wiki.PtEn)
	e.Seed(key, "warm")
	s := e.Stats()
	if s.Restored[KindPair] != 1 || s.Misses != 0 {
		t.Fatalf("stats after seed = %+v", s)
	}
	v, err := e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
		t.Fatal("seeded entry must not rebuild")
		return nil, nil
	})
	if err != nil || v != "warm" {
		t.Fatalf("get = %v, %v", v, err)
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", s.Hits, s.Misses)
	}
	if ns := e.NodeStats(key); !ns.Restored {
		t.Fatal("node not marked restored")
	}
}

func TestStaleEpochBuildsPrivately(t *testing.T) {
	e := NewEngine()
	key := PairKey(wiki.PtEn)
	e.Apply(func(*Tx) {}) // epoch 0 → 1

	var built atomic.Int32
	v, err := e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
		built.Add(1)
		return "stale-gen", nil
	})
	if err != nil || v != "stale-gen" {
		t.Fatalf("get = %v, %v", v, err)
	}
	if built.Load() != 1 {
		t.Fatal("stale-epoch caller did not build")
	}
	// The private build must not touch the graph or its counters.
	s := e.Stats()
	if s.Entries[KindPair] != 0 || s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("stale build leaked into graph: %+v", s)
	}
}

// TestLookupNeverBuilds: Lookup answers only from a complete live node
// and counts a hit only when it finds one, so it never builds, waits or
// double-counts a node that a fallback Get then serves.
func TestLookupNeverBuilds(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	key := PairKey(wiki.PtEn)
	if _, ok := e.Lookup(key, 0); ok {
		t.Fatal("Lookup found an absent node")
	}

	inBuild, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = e.Get(ctx, key, 0, func(context.Context) (any, error) {
			close(inBuild)
			<-release
			return "v", nil
		})
	}()
	<-inBuild
	if _, ok := e.Lookup(key, 0); ok {
		t.Fatal("Lookup returned a node still building")
	}
	close(release)
	<-done
	if s := e.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after one build and two failed lookups: %+v", s)
	}

	if v, ok := e.Lookup(key, 0); !ok || v != "v" {
		t.Fatalf("Lookup = %v, %v", v, ok)
	}
	if s := e.Stats(); s.Hits != 1 || e.NodeStats(key).Hits != 1 {
		t.Fatalf("a found node must count one hit: %+v", s)
	}

	e.Apply(func(*Tx) {}) // epoch 0 → 1: the caller's epoch is superseded
	if _, ok := e.Lookup(key, 0); ok {
		t.Fatal("Lookup served a superseded epoch")
	}
	if _, ok := e.Lookup(key, 1); !ok {
		t.Fatal("Lookup missed a live node at the current epoch")
	}
}

func TestWaitersRetryOrphanedEntry(t *testing.T) {
	e := NewEngine()
	key := PairKey(wiki.PtEn)
	inBuild := make(chan struct{})
	release := make(chan struct{})

	go func() {
		_, _ = e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
			close(inBuild)
			<-release
			return "stale", nil
		})
	}()
	<-inBuild

	// A waiter parks on the in-flight entry.
	got := make(chan any, 1)
	waiterStarted := make(chan struct{})
	go func() {
		close(waiterStarted)
		v, err := e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
			return "fresh", nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		got <- v
	}()
	<-waiterStarted

	// Invalidate mid-build: the entry is orphaned, the build completes
	// into it, and the waiter must rebuild rather than consume "stale".
	if dropped := e.Invalidate(key); dropped[KindPair] != 1 {
		t.Fatalf("dropped = %v", dropped)
	}
	close(release)

	if v := <-got; v != "fresh" {
		t.Fatalf("waiter got %v, want fresh rebuild", v)
	}
	if v, ok := e.Value(key); !ok || v != "fresh" {
		t.Fatalf("graph holds %v/%v, want fresh", v, ok)
	}
	// The orphaned "stale" build completed into a discarded entry: only
	// the waiter's rebuild materialized into the cache, so only it counts.
	if s := e.Stats(); s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (orphaned build must not count)", s.Misses)
	}
	if ns := e.NodeStats(key); ns.Builds != 1 {
		t.Fatalf("node builds = %d, want 1 (orphaned build must not count)", ns.Builds)
	}
}

func TestCancelledBuilderWaitersRetry(t *testing.T) {
	e := NewEngine()
	key := PairKey(wiki.PtEn)
	builderCtx, cancelBuilder := context.WithCancel(context.Background())
	inBuild := make(chan struct{})

	go func() {
		_, _ = e.Get(builderCtx, key, 0, func(ctx context.Context) (any, error) {
			close(inBuild)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	}()
	<-inBuild

	got := make(chan any, 1)
	go func() {
		v, err := e.Get(context.Background(), key, 0, func(context.Context) (any, error) {
			return "retried", nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		got <- v
	}()

	cancelBuilder()
	if v := <-got; v != "retried" {
		t.Fatalf("waiter got %v, want retried", v)
	}
	s := e.Stats()
	if s.Failures != 1 || s.Misses != 1 {
		t.Fatalf("failures/misses = %d/%d, want 1/1", s.Failures, s.Misses)
	}
}

func TestApplySeedAndInvalidate(t *testing.T) {
	e := NewEngine()
	bg := context.Background()
	pk, tk1, tk2 := PairKey(wiki.PtEn), TypeKey(wiki.PtEn, "film", "filme"), TypeKey(wiki.PtEn, "city", "cidade")
	for _, k := range []Key{pk, tk1, tk2} {
		if _, err := e.Get(bg, k, 0, func(context.Context) (any, error) { return "v1", nil }); err != nil {
			t.Fatal(err)
		}
	}
	var newEpoch uint64
	dropped := e.Apply(func(tx *Tx) {
		newEpoch = tx.Epoch()
		tx.Invalidate(tk1)
		tx.Seed(pk, "v2")
	})
	if newEpoch != 1 {
		t.Fatalf("epoch = %d, want 1", newEpoch)
	}
	// Seed replaces the live pair entry without counting a drop; only
	// the explicit Invalidate shows up in the counts.
	if dropped[KindType] != 1 || dropped[KindPair] != 0 {
		t.Fatalf("dropped = %v, want exactly 1 type", dropped)
	}
	if v, ok := e.Value(pk); !ok || v != "v2" {
		t.Fatalf("pair value = %v/%v, want v2", v, ok)
	}
	if _, ok := e.Value(tk1); ok {
		t.Fatal("tk1 should be dropped")
	}
	if _, ok := e.Value(tk2); !ok {
		t.Fatal("tk2 should survive")
	}
	if ns := e.NodeStats(pk); ns.Builds != 2 {
		t.Fatalf("pair builds = %d, want 2 (initial + reseed)", ns.Builds)
	}
}
