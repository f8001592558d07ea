// Package router is the fleet coordinator of wikimatchd: it fronts N
// replica shards behind the same /v1 surface a single binary serves.
// A deterministic shard map assigns every canonical language pair (and
// with it the pair's type artifacts) to exactly one shard; unary pair
// requests are routed to their owner, all-pairs batches are
// scatter-gathered across the fleet, and corpus deltas fan out to every
// shard. Replicas started with the matching -shard-index/-shard-count
// filter warm-load only the slice of the snapshot the map assigns them.
//
// The router has no HTTP layer and no batch code of its own. *Router
// is a service.Backend served by service.NewHandler, the handler a
// single binary runs, and its batch routes (matchall, the all-pairs
// stream and both audits) are the embedded service.BatchRoutes, the
// single binary's own code. The fleet supplies only the language set,
// the pair matcher and the audit of pre-merged clusters (fleetBatch).
package router

import "repro/internal/wiki"

// fnv-1a 64-bit parameters (hash/fnv computes the same function; the
// constants are inlined so the mapping is readably self-contained — the
// replica-side filter and any out-of-process tooling must reproduce it
// bit for bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ShardFor maps a language pair to the index of the shard owning it
// among count shards. The hash runs over the lexicographically sorted
// language codes, so the mapping is orientation-independent: pt-en and
// en-pt, however a plan orients them, land on the same shard, and a
// pair's placement never depends on the batch mode or hub that asked
// for it. FNV-1a is used for its even small-key distribution and
// trivial reimplementation anywhere else the map is needed.
func ShardFor(pair wiki.LanguagePair, count int) int {
	if count <= 1 {
		return 0
	}
	a, b := string(pair.A), string(pair.B)
	if b < a {
		a, b = b, a
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= fnvPrime64
	}
	h ^= 0 // the NUL separator keeps ("ab","c") and ("a","bc") distinct
	h *= fnvPrime64
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return int(h % uint64(count))
}

// Owned returns the ownership predicate of shard index among count —
// the keep function a replica passes to service.RestoreFiltered and
// service.WithShardGate so it loads and serves exactly the slice the
// router will send it.
func Owned(index, count int) func(wiki.LanguagePair) bool {
	return func(p wiki.LanguagePair) bool { return ShardFor(p, count) == index }
}
