// The pruned scoring path: instead of evaluating vsim/lsim/LSI cosines
// for all O(n²) attribute pairs, a cheap shortlist pass over the int8
// quantization of the LSI embedding (lsi.ScoreBounds) keeps only the
// pairs whose LSI score could clear the TLSI queue threshold — plus
// each attribute's top-k partners by quantized estimate as a safety
// margin — and only those survivors get exact float64 scores. Queue
// membership is decided purely by the exact rescored LSI value and
// survivors are enumerated in AllPairs order, so the resulting queue
// (contents, scores, and stable-sort tie order) is byte-identical to
// the exhaustive path at any shortlist width. All scratch memory is
// pooled: a warm match performs no per-pair heap allocations here.

package core

import (
	"context"
	"sync"

	"repro/internal/lsi"
	"repro/internal/sim"
)

// defaultCandidates is the per-attribute shortlist width used when
// Config.candidates is 0.
const defaultCandidates = 16

// prunedAttrLimit bounds the packed (i, j) pair encoding of the
// shortlist; types beyond it (far past anything Wikipedia produces)
// fall back to exhaustive scoring.
const prunedAttrLimit = 1 << 15

// usePruned reports whether the pruned path can serve cfg for a type
// with n attributes. It cannot when the caller asked for the exhaustive
// reference (exactScore, negative candidates), when LSI is ablated (the
// queue is then not LSI-gated at all), or when TLSI is negative (every
// pair enters the queue, so there is nothing to prune).
func (cfg Config) usePruned(n int) bool {
	return !cfg.exactScore && cfg.candidates >= 0 && !cfg.DisableLSI &&
		cfg.TLSI >= 0 && n > 0 && n < prunedAttrLimit
}

// matchScratch is the reusable workspace of one pruned scoring run.
// Instances live in matchScratchPool; every slice is length-adjusted
// (never reallocated when capacity suffices) so a warm session's
// steady-state match allocates nothing here.
type matchScratch struct {
	rowOf  []int32      // TypeData attr index → model row, -1 when absent
	bits   []uint64     // survivor bitset over lexicographic pair codes
	topEst []float64    // per-attr top-k quantized estimates (k slots each)
	topAt  []int32      // pair code per top-k slot, -1 when empty
	surv   []uint32     // survivor pair codes, packed (i<<16 | j), in order
	ps     []pairScores // exact scores per survivor
	resc   rescorer
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// rescorer computes exact scores for a range of shortlist survivors. It
// is a named struct rather than a closure so the serial path (the
// common case, and the one the zero-allocation test pins) can run it
// without materializing a func value.
type rescorer struct {
	sc    *matchScratch
	kern  *sim.Kernel
	model *lsi.Model
	cfg   Config
}

// run scores survivors [lo, hi): the exact LSI value always, and the
// vsim/lsim cosines only for pairs that actually enter the queue —
// exactly the values the exhaustive path would have produced, via the
// byte-identical merge-join kernel. Safe for concurrent calls on
// disjoint ranges.
func (r *rescorer) run(lo, hi int) {
	for s := lo; s < hi; s++ {
		packed := r.sc.surv[s]
		i, j := int(packed>>16), int(packed&0xffff)
		l := r.model.Score(int(r.sc.rowOf[i]), int(r.sc.rowOf[j]))
		var v, ls float64
		if l > r.cfg.TLSI {
			if !r.cfg.DisableVSim {
				v = r.kern.VSim(i, j)
			}
			if !r.cfg.DisableLSim {
				ls = r.kern.LSim(i, j)
			}
		}
		r.sc.ps[s] = pairScores{vsim: v, lsim: ls, lsi: l}
	}
}

// prunedQueue builds the priority queue of Algorithm 1 through the
// shortlist: byte-identical to the exhaustive queue, in the same order.
func prunedQueue(ctx context.Context, td *sim.TypeData, model *lsi.Model, cfg Config) ([]Candidate, error) {
	sc := matchScratchPool.Get().(*matchScratch)
	defer func() {
		sc.resc = rescorer{} // drop artifact references before pooling
		matchScratchPool.Put(sc)
	}()
	if err := scorePrunedInto(ctx, td, model, cfg, sc); err != nil {
		return nil, err
	}
	nq := 0
	for s := range sc.surv {
		if sc.ps[s].lsi > cfg.TLSI {
			nq++
		}
	}
	queue := make([]Candidate, 0, nq)
	for s, packed := range sc.surv {
		if sc.ps[s].lsi > cfg.TLSI {
			queue = append(queue, Candidate{
				I: int(packed >> 16), J: int(packed & 0xffff),
				VSim: sc.ps[s].vsim, LSim: sc.ps[s].lsim, LSI: sc.ps[s].lsi,
			})
		}
	}
	return queue, nil
}

// scorePrunedInto runs the shortlist pass and the exact rescoring of
// survivors into sc. Split from prunedQueue so the allocation
// regression test can drive it with a retained scratch and assert the
// warm path allocates nothing.
func scorePrunedInto(ctx context.Context, td *sim.TypeData, model *lsi.Model, cfg Config, sc *matchScratch) error {
	n := len(td.Attrs)
	k := cfg.candidates
	if k == 0 {
		k = defaultCandidates
	}
	if k > n-1 {
		k = n - 1
	}
	kern := td.Kernel()
	model.Quantized() // build outside the tight loop

	sc.rowOf = growI32(sc.rowOf, n)
	for i, a := range td.Attrs {
		if r, ok := model.Index[a]; ok {
			sc.rowOf[i] = int32(r)
		} else {
			sc.rowOf[i] = -1 // unknown to the model: exact score is 0
		}
	}

	nPairs := n * (n - 1) / 2
	sc.bits = growU64(sc.bits, (nPairs+63)/64)
	for w := range sc.bits {
		sc.bits[w] = 0
	}
	topSz := n * k
	sc.topEst = growF64(sc.topEst, topSz)
	sc.topAt = growI32(sc.topAt, topSz)
	for t := 0; t < topSz; t++ {
		sc.topEst[t] = -1 // below any real estimate (scores are ≥ 0)
		sc.topAt[t] = -1
	}

	// Pass 1: bound every pair. Pairs whose upper bound clears TLSI are
	// survivors outright; the rest compete for the per-attribute top-k
	// slots (ties keep the earlier pair, so the outcome is
	// deterministic). Pairs that are provably zero — unknown rows,
	// same-language co-occurrence — are skipped entirely.
	seq := int32(-1)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ri := sc.rowOf[i]
		for j := i + 1; j < n; j++ {
			seq++
			rj := sc.rowOf[j]
			if ri < 0 || rj < 0 {
				continue
			}
			est, hi := model.ScoreBounds(int(ri), int(rj))
			if hi > cfg.TLSI {
				sc.bits[seq>>6] |= 1 << (uint(seq) & 63)
				continue
			}
			if hi == 0 {
				continue
			}
			topKInsert(sc, i, k, est, seq)
			topKInsert(sc, j, k, est, seq)
		}
	}
	for t := 0; t < topSz; t++ {
		if at := sc.topAt[t]; at >= 0 {
			sc.bits[at>>6] |= 1 << (uint(at) & 63)
		}
	}

	// Pass 2: collect survivors in lexicographic (i, j) order — the
	// AllPairs order the exhaustive queue is built in, which preserves
	// stable-sort tie order downstream.
	sc.surv = sc.surv[:0]
	seq = -1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			seq++
			if sc.bits[seq>>6]&(1<<(uint(seq)&63)) != 0 {
				sc.surv = append(sc.surv, uint32(i)<<16|uint32(j))
			}
		}
	}

	// Exact rescoring of the survivors.
	sc.ps = growPS(sc.ps, len(sc.surv))
	sc.resc = rescorer{sc: sc, kern: kern, model: model, cfg: cfg}
	if len(sc.surv) < minParallelRescore {
		sc.resc.run(0, len(sc.surv))
		return ctx.Err()
	}
	return scorePairsCtx(ctx, len(sc.surv), sc.resc.run)
}

// minParallelRescore mirrors scorePairsCtx's serial cutoff: below it the
// rescorer runs inline, with no func value and no goroutines.
const minParallelRescore = 512

// topKInsert offers (est, at) to attribute row's k estimate slots,
// replacing the smallest kept estimate when strictly beaten — so on
// ties the earliest pair in scan order wins.
func topKInsert(sc *matchScratch, row, k int, est float64, at int32) {
	if k <= 0 {
		return
	}
	base := row * k
	minSlot, minVal := base, sc.topEst[base]
	for s := base + 1; s < base+k; s++ {
		if sc.topEst[s] < minVal {
			minSlot, minVal = s, sc.topEst[s]
		}
	}
	if est > minVal {
		sc.topEst[minSlot] = est
		sc.topAt[minSlot] = at
	}
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growPS(s []pairScores, n int) []pairScores {
	if cap(s) < n {
		return make([]pairScores, n)
	}
	return s[:n]
}
