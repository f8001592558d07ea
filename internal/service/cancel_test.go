package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	largeOnce   sync.Once
	largeCorpus *wiki.Corpus
)

// fullCorpus generates the full-scale synthetic corpus (the paper's
// dataset proportions) — big enough that a cold pt-en match takes on the
// order of a hundred milliseconds, so mid-flight cancellation has
// something to interrupt.
func fullCorpus(t testing.TB) *wiki.Corpus {
	t.Helper()
	largeOnce.Do(func() {
		c, _, err := synth.Generate(synth.DefaultConfig())
		if err != nil {
			t.Fatalf("generate full corpus: %v", err)
		}
		largeCorpus = c
	})
	return largeCorpus
}

// TestMatchPreCancelled: a context cancelled before the call fails fast
// with ctx.Err() and caches nothing usable.
func TestMatchPreCancelled(t *testing.T) {
	s := New(fullCorpus(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := s.Match(ctx, wiki.PtEn)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Match = %v, %v; want nil, context.Canceled", res, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled Match took %v", elapsed)
	}
	// The aborted build must not have poisoned the cache: a live context
	// succeeds.
	if _, err := s.Match(context.Background(), wiki.PtEn); err != nil {
		t.Fatalf("Match after cancellation: %v", err)
	}
}

// TestMatchCancelMidFlight cancels while the cold pt-en match is deep in
// artifact building / pair scoring and requires a prompt ctx.Err()
// return — well under the cold duration measured in the same test run.
func TestMatchCancelMidFlight(t *testing.T) {
	c := fullCorpus(t)

	coldStart := time.Now()
	if _, err := New(c).Match(context.Background(), wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)

	ctx, cancel := context.WithTimeout(context.Background(), cold/10)
	defer cancel()
	start := time.Now()
	res, err := New(c).Match(ctx, wiki.PtEn)
	elapsed := time.Since(start)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Match = %v, %v; want nil, context.DeadlineExceeded", res, err)
	}
	// Chunk-boundary checks bound the cancellation latency to a few
	// milliseconds of scoring plus at most one partial artifact build; a
	// whole cold-match duration of slack keeps the bound robust under CI
	// noise while still proving we did not run to completion first.
	if elapsed > cold {
		t.Errorf("cancelled Match returned after %v; cold match takes %v", elapsed, cold)
	}
}

// TestMatchTypeCancelMidScoring cancels a single-type alignment whose
// artifacts are already cached but whose result is not yet memoized, so
// the only interruptible stage left is the chunked pair-scoring loop.
// The failed alignment must leave the memo empty, and once the memo is
// filled a cancelled caller must still get its context's error.
func TestMatchTypeCancelMidScoring(t *testing.T) {
	c := fullCorpus(t)
	s := New(c)
	ctx := context.Background()
	types, err := s.Types(ctx, wiki.PtEn)
	if err != nil || len(types) == 0 {
		t.Fatalf("Types: %v (%d)", err, len(types))
	}
	tp := types[0]
	// An equal-threshold matcher that is not the session's own warms the
	// artifact cache without touching the memo.
	if _, err := s.matchTypeWith(ctx, wiki.PtEn, tp[0], tp[1], core.NewMatcher(s.Config())); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if res, err := s.MatchType(cancelled, wiki.PtEn, tp[0], tp[1]); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchType = %v, %v; want nil, context.Canceled", res, err)
	}
	if memoOf(s, wiki.PtEn, tp[0], tp[1]) != nil {
		t.Fatal("cancelled alignment was memoized")
	}
	if _, err := s.MatchType(ctx, wiki.PtEn, tp[0], tp[1]); err != nil {
		t.Fatal(err) // fills the memo
	}
	if res, err := s.MatchType(cancelled, wiki.PtEn, tp[0], tp[1]); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("memoized MatchType = %v, %v; want nil, context.Canceled", res, err)
	}
}

// TestMatchStreamCancel cancels a stream before consuming it — the
// hung-up-client scenario. The buffered channel means workers never
// block on the unconsumed stream; the cancelled context must stop the
// types that have not started, so the channel closes promptly with only
// the handful of in-flight types (if any) slipping through.
func TestMatchStreamCancel(t *testing.T) {
	c := fullCorpus(t)
	s := New(c)
	ctx, cancel := context.WithCancel(context.Background())
	updates, err := s.MatchStream(ctx, wiki.PtEn)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// Give the pool a moment to observe the dead context and drain.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	total := -1
	delivered := 0
	for u := range updates {
		if u.Err == nil {
			total = u.Total
			delivered++
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled stream took %v to close", elapsed)
	}
	if total >= 0 && delivered >= total {
		t.Errorf("cancelled, unconsumed stream still delivered all %d types", total)
	}
}

// TestCancelledPairStreamWithholdsFinal: a pair stream whose context is
// done before any type runs skips every type, and must then withhold its
// FinalMatch line rather than answer with types missing. The pair node
// is cached, so the stream may start or fail with the context's error;
// it runs many times because the engine picks either at random.
func TestCancelledPairStreamWithholdsFinal(t *testing.T) {
	s := New(smallCorpus(t))
	if _, err := s.Types(context.Background(), wiki.PtEn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range 20 {
		lines, err := s.ServeStream(ctx, protocol.MatchRequest{Pair: "pt-en"})
		if err != nil {
			continue
		}
		for line := range lines {
			if line.FinalMatch != nil {
				t.Fatalf("cancelled stream sent a FinalMatch with %d of its types", len(line.FinalMatch.Results))
			}
		}
	}
}

// TestAbandonedAuditStreamSettles: a consumer that reads the first line
// of a cluster-bearing audit stream, cancels and stops reading leaves no
// goroutine behind; the producer must not block on a line nobody will
// receive.
func TestAbandonedAuditStreamSettles(t *testing.T) {
	s := New(smallCorpus(t))
	batch, err := s.MatchAll(context.Background(), multi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.AuditRequest{Clusters: batch.Clusters}
	full, err := s.ServeAudit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// More findings than the stream buffers, so an unguarded send blocks.
	if len(full.Findings) < 8 {
		t.Fatalf("audit has %d findings; the check needs more than the stream's buffer", len(full.Findings))
	}

	base := settledGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, err := s.ServeAuditStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if line := <-lines; line.Finding == nil {
		t.Fatalf("first line %+v, want a finding", line)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// settledGoroutines waits for the goroutine count to hold still over
// three samples and returns it.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 3 {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
