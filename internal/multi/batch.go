package multi

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wiki"
)

// PairMatcher runs one language pair end to end. service.Session
// implements it; handing the batch a shared session is what makes pivot
// mode cheap — the hub-side dictionaries, type alignments and LSI models
// are built once and reused across every pair that touches the hub, and
// ad-hoc pairwise calls before or after the batch hit the same cache.
type PairMatcher interface {
	Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error)
}

// Options configures a batch run.
type Options struct {
	// Mode selects pivot (default) or direct pair coverage.
	Mode Mode
	// Hub is the pivot edition; empty resolves to DefaultHub of the
	// batch's language set (English when present). Direct mode uses it
	// only to orient pairs canonically.
	Hub wiki.Language
	// Workers bounds how many pairs run concurrently; 0 means
	// GOMAXPROCS. Each pair's own type matching is internally parallel
	// too, so modest values saturate the machine.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// PairOutcome is one pair's result or failure within a batch. A failed
// pair does not abort the batch: the remaining pairs still run and the
// cluster builder works from whatever succeeded.
type PairOutcome struct {
	Pair    wiki.LanguagePair
	Result  *core.Result // nil when Err != nil
	Err     error
	Elapsed time.Duration
}

// Correspondences counts the cross-language attribute correspondences the
// pair derived (0 for failed pairs).
func (o *PairOutcome) Correspondences() int {
	if o.Result == nil {
		return 0
	}
	n := 0
	for _, tr := range o.Result.PerType {
		for _, bs := range tr.Cross {
			n += len(bs)
		}
	}
	return n
}

// Update is one progress event from a streaming batch: every finished
// pair produces an Update with Outcome set, and the last Update carries
// the final BatchResult (clusters included) with Outcome nil.
type Update struct {
	// Done counts finished pairs (including failures) so far; Total is
	// the plan size.
	Done, Total int
	Outcome     *PairOutcome
	Final       *BatchResult
}

// BatchResult is a completed all-pairs run.
type BatchResult struct {
	Plan     Plan
	Outcomes []PairOutcome // in plan order
	Clusters []Cluster
	Failed   int // outcomes with Err != nil
	Elapsed  time.Duration
}

// Outcome returns the outcome for a pair, or nil if it was not planned.
func (b *BatchResult) Outcome(pair wiki.LanguagePair) *PairOutcome {
	for i := range b.Outcomes {
		if b.Outcomes[i].Pair == pair {
			return &b.Outcomes[i]
		}
	}
	return nil
}

// Run executes the all-pairs batch over the languages: it resolves the
// pair plan, matches every planned pair on a bounded worker pool, and
// merges the pairwise correspondences into cross-language clusters.
// Per-pair failures are recorded in their outcomes without stopping the
// batch; only a cancelled context aborts the run as a whole.
func Run(ctx context.Context, m PairMatcher, langs []wiki.Language, opts Options) (*BatchResult, error) {
	updates, err := Stream(ctx, m, langs, opts)
	if err != nil {
		return nil, err
	}
	var final *BatchResult
	for u := range updates {
		if u.Final != nil {
			final = u.Final
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return final, nil
}

// Stream is Run with per-pair progress reporting: the returned channel
// delivers one Update per finished pair (completion order) and a final
// Update carrying the BatchResult, then closes. The channel is buffered
// for the whole batch, so an abandoned consumer never strands the
// workers. After a cancellation the remaining pairs are recorded with
// the context's error and the final update is still delivered.
func Stream(ctx context.Context, m PairMatcher, langs []wiki.Language, opts Options) (<-chan Update, error) {
	opts = opts.withDefaults()
	plan, err := NewPlan(langs, opts.Mode, opts.Hub)
	if err != nil {
		return nil, err
	}
	return StreamPlan(ctx, m, plan, opts.Workers), nil
}

// StreamPlan is Stream over an already-resolved plan: the scheduler
// without the planning step. The /v1 batch routes (service.BatchRoutes)
// call it directly, so a session and the fleet router run the same
// bounded worker pool and cluster merge with their own worker defaults.
// workers ≤ 0 means GOMAXPROCS; more workers than pairs run one per
// pair.
func StreamPlan(ctx context.Context, m PairMatcher, plan Plan, workers int) <-chan Update {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := len(plan.Pairs)
	out := make(chan Update, total+1)
	go func() {
		defer close(out)
		start := time.Now()
		res := &BatchResult{Plan: plan, Outcomes: make([]PairOutcome, total)}

		if workers > total {
			workers = total
		}
		next := make(chan int)
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex // guards done counting and update emission order
			done int
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					o := &res.Outcomes[i]
					o.Pair = plan.Pairs[i]
					pairStart := time.Now()
					if err := ctx.Err(); err != nil {
						o.Err = err
					} else {
						o.Result, o.Err = m.Match(ctx, o.Pair)
					}
					o.Elapsed = time.Since(pairStart)
					mu.Lock()
					done++
					out <- Update{Done: done, Total: total, Outcome: o}
					mu.Unlock()
				}
			}()
		}
		for i := 0; i < total; i++ {
			next <- i
		}
		close(next)
		wg.Wait()

		for i := range res.Outcomes {
			if res.Outcomes[i].Err != nil {
				res.Failed++
			}
		}
		res.Clusters = BuildClusters(plan, res.Outcomes)
		res.Elapsed = time.Since(start)
		out <- Update{Done: total, Total: total, Final: res}
	}()
	return out
}
