package artifact

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// BuildFunc materializes one node's value. It runs outside the engine
// lock and must honour ctx.
type BuildFunc func(ctx context.Context) (any, error)

// entry is one node's in-cache state. done is closed when the build
// finishes (successfully or not); orphaned is set when the entry is
// dropped from the graph while callers may still hold a pointer to it,
// telling waiters to retry instead of consuming a stale value.
type entry struct {
	done     chan struct{}
	val      any
	err      error
	orphaned atomic.Bool
}

// NodeStats counts one node's lifetime activity. The counters survive
// invalidation: a node rebuilt after a corpus delta reports Builds == 2.
type NodeStats struct {
	Builds   uint64 // successful builds that entered the graph (including delta reseeds)
	Hits     uint64 // completed-entry reuses
	Failures uint64 // failed builds (in practice: cancelled contexts)
	Restored bool   // the node was seeded from a snapshot at least once
}

// Stats is an aggregate snapshot of the engine.
type Stats struct {
	Entries  map[Kind]int // live completed or in-flight entries per kind
	Restored map[Kind]int // snapshot-seeded entries per kind (never decremented)
	Hits     uint64
	Misses   uint64 // completed builds that entered the graph; failures count separately
	Failures uint64
}

// Node is one exported (key, value) pair — the unit the persistence
// layer serializes.
type Node struct {
	Key   Key
	Value any
}

// Engine is the artifact graph: a keyed single-flight cache with
// declared dependencies, transitive invalidation, restore seeding and
// per-node statistics. The zero value is not usable; create with
// NewEngine. All methods are safe for concurrent use.
type Engine struct {
	mu         sync.Mutex
	epoch      uint64
	nodes      map[Key]*entry
	dependents map[Key]map[Key]bool // dep key → keys of live entries depending on it
	stats      map[Key]*NodeStats   // survives entry drops
	restored   map[Kind]int
	hits       uint64
	misses     uint64
	failures   uint64
}

// NewEngine returns an empty engine at epoch 0.
func NewEngine() *Engine {
	return &Engine{
		nodes:      make(map[Key]*entry),
		dependents: make(map[Key]map[Key]bool),
		stats:      make(map[Key]*NodeStats),
		restored:   make(map[Kind]int),
	}
}

// Epoch returns the current graph epoch. Callers capture it together
// with their corpus snapshot and pass it back to Get.
func (e *Engine) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Get returns the node's value, building it with build on a miss.
// Concurrent callers for the same key share one build; if the builder's
// context is cancelled the entry is discarded and surviving waiters
// retry with their own contexts. epoch is the graph epoch the caller
// captured with its corpus snapshot: a caller from a superseded epoch
// gets a private build (correct for its snapshot, never cached).
func (e *Engine) Get(ctx context.Context, key Key, epoch uint64, build BuildFunc) (any, error) {
	for {
		e.mu.Lock()
		if epoch != e.epoch {
			e.mu.Unlock()
			// A superseded-generation caller must not touch the live
			// graph: build privately against its own corpus snapshot.
			return build(ctx)
		}
		ent, ok := e.nodes[key]
		if !ok {
			ent = &entry{done: make(chan struct{})}
			e.nodes[key] = ent
			e.link(key)
			e.mu.Unlock()
			ent.val, ent.err = build(ctx)
			e.finishBuild(key, ent)
			close(ent.done)
			if ent.err != nil {
				return nil, ent.err
			}
			return ent.val, nil
		}
		e.mu.Unlock()
		select {
		case <-ent.done:
			if ent.err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue // builder was cancelled, not us: rebuild
			}
			if ent.orphaned.Load() {
				// Invalidated while we waited; the value belongs to a
				// graph that no longer exists. Retry against the live one.
				continue
			}
			e.recordHit(key)
			return ent.val, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Lookup returns a node's value if the live graph at epoch already holds
// it complete; it never builds or waits. A value found counts as a hit,
// as from Get. A node that is absent or still building, or a superseded
// epoch, reports false and counts nothing, so a caller falling back to
// Get for it is counted once.
func (e *Engine) Lookup(key Key, epoch uint64) (any, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.nodes[key]
	if !ok || epoch != e.epoch {
		return nil, false
	}
	select {
	case <-ent.done:
	default:
		return nil, false
	}
	// A failed build leaves the graph before its done channel closes, so
	// a closed live entry holds a value.
	e.hits++
	e.nodeStats(key).Hits++
	return ent.val, true
}

// finishBuild accounts for a completed build and, on failure, discards
// the entry (if it is still the live one) so the next request rebuilds.
func (e *Engine) finishBuild(key Key, ent *entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ns := e.nodeStats(key)
	if ent.err != nil {
		e.failures++
		ns.Failures++
		if e.nodes[key] == ent {
			delete(e.nodes, key)
			e.unlink(key)
		}
		return
	}
	// Count the miss only now that the build completed — and only if the
	// entry is still the live node. Cancelled builds must not inflate the
	// miss rate, and a build orphaned mid-flight (invalidated, or replaced
	// by a Tx.Seed) never enters the graph, so it is not work materialized
	// into the cache; its waiters retry and their rebuilds count.
	if e.nodes[key] != ent {
		return
	}
	e.misses++
	ns.Builds++
}

func (e *Engine) recordHit(key Key) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hits++
	e.nodeStats(key).Hits++
}

// nodeStats returns the node's stats record, creating it on first use.
// Caller holds e.mu.
func (e *Engine) nodeStats(key Key) *NodeStats {
	ns := e.stats[key]
	if ns == nil {
		ns = &NodeStats{}
		e.stats[key] = ns
	}
	return ns
}

// link registers key as a dependent of each of its declared
// dependencies. Caller holds e.mu.
func (e *Engine) link(key Key) {
	for _, d := range key.Deps() {
		m := e.dependents[d]
		if m == nil {
			m = make(map[Key]bool)
			e.dependents[d] = m
		}
		m[key] = true
	}
}

// unlink removes key from its dependencies' dependent sets. Caller
// holds e.mu.
func (e *Engine) unlink(key Key) {
	for _, d := range key.Deps() {
		if m := e.dependents[d]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(e.dependents, d)
			}
		}
	}
}

// Seed inserts a completed node restored from a snapshot. Restored
// entries are born complete: the first request against one counts as a
// cache hit, and Stats' Restored counters record the seeding.
func (e *Engine) Seed(key Key, val any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nodes[key] = &entry{done: closedChan(), val: val}
	e.link(key)
	e.restored[key.Kind]++
	e.nodeStats(key).Restored = true
}

// Invalidate drops the nodes rooted at keys and, transitively, every
// node that depends on them — and nothing else. It returns how many
// entries of each kind were dropped. In-flight entries are orphaned:
// their builds complete into the discarded entry and waiters retry.
func (e *Engine) Invalidate(roots ...Key) map[Kind]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	dropped := make(map[Kind]int)
	e.invalidate(roots, dropped)
	return dropped
}

// InvalidateAll drops every entry in the graph.
func (e *Engine) InvalidateAll() map[Kind]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	dropped := make(map[Kind]int)
	keys := make([]Key, 0, len(e.nodes))
	for k := range e.nodes {
		keys = append(keys, k)
	}
	e.invalidate(keys, dropped)
	return dropped
}

// invalidate drops roots and their transitive dependents, tallying into
// dropped. Caller holds e.mu.
func (e *Engine) invalidate(roots []Key, dropped map[Kind]int) {
	for _, r := range roots {
		deps := e.dependents[r]
		children := make([]Key, 0, len(deps))
		for d := range deps {
			children = append(children, d)
		}
		e.invalidate(children, dropped)
		if ent, ok := e.nodes[r]; ok {
			ent.orphaned.Store(true)
			delete(e.nodes, r)
			e.unlink(r)
			dropped[r.Kind]++
		}
	}
}

// Keys returns the live entry keys of one kind, canonically sorted.
// In-flight entries are included.
func (e *Engine) Keys(kind Kind) []Key {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.keys(kind)
}

func (e *Engine) keys(kind Kind) []Key {
	var out []Key
	for k := range e.nodes {
		if k.Kind == kind {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Value returns the node's value if its build has completed
// successfully.
func (e *Engine) Value(key Key) (any, bool) {
	e.mu.Lock()
	ent, ok := e.nodes[key]
	e.mu.Unlock()
	if !ok || !entryDone(ent.done) || ent.err != nil {
		return nil, false
	}
	return ent.val, true
}

// Export returns every completed, successful node — the set the
// persistence layer serializes. In-flight and failed builds are
// skipped, so Export is safe to call at any time on a live engine.
func (e *Engine) Export() []Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Node, 0, len(e.nodes))
	for k, ent := range e.nodes {
		if !entryDone(ent.done) || ent.err != nil {
			continue
		}
		out = append(out, Node{Key: k, Value: ent.val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.less(out[j].Key) })
	return out
}

// Stats returns an aggregate snapshot of the engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		Entries:  make(map[Kind]int),
		Restored: make(map[Kind]int, len(e.restored)),
		Hits:     e.hits,
		Misses:   e.misses,
		Failures: e.failures,
	}
	for k := range e.nodes {
		s.Entries[k.Kind]++
	}
	for k, n := range e.restored {
		s.Restored[k] = n
	}
	return s
}

// NodeStats returns one node's lifetime counters (zero value for nodes
// never seen).
func (e *Engine) NodeStats(key Key) NodeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ns := e.stats[key]; ns != nil {
		return *ns
	}
	return NodeStats{}
}

// Tx is the transactional view Apply hands its callback: every
// operation runs under the engine lock, so the callback's reads, drops,
// seeds and the epoch advance are one atomic graph update.
type Tx struct {
	e       *Engine
	dropped map[Kind]int
}

// Apply advances the graph epoch and runs fn as one atomic update.
// Get callers block for the duration; callers holding the previous
// epoch build privately afterwards (see Get). It returns the per-kind
// counts of entries fn dropped.
func (e *Engine) Apply(fn func(*Tx)) map[Kind]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch++
	tx := &Tx{e: e, dropped: make(map[Kind]int)}
	fn(tx)
	return tx.dropped
}

// Epoch returns the epoch this update established.
func (t *Tx) Epoch() uint64 { return t.e.epoch }

// Keys lists the live entry keys of one kind, canonically sorted.
func (t *Tx) Keys(kind Kind) []Key { return t.e.keys(kind) }

// Value returns a node's completed value, as Engine.Value.
func (t *Tx) Value(key Key) (any, bool) {
	ent, ok := t.e.nodes[key]
	if !ok || !entryDone(ent.done) || ent.err != nil {
		return nil, false
	}
	return ent.val, true
}

// Invalidate drops roots and their transitive dependents, tallying into
// the counts Apply returns.
func (t *Tx) Invalidate(roots ...Key) { t.e.invalidate(roots, t.dropped) }

// Seed installs a freshly built value as a completed entry, replacing
// (and orphaning) any live entry under the key. The install counts as a
// completed build — it is one — in both the aggregate miss counter and
// the node's Builds, not in the Restored counters.
func (t *Tx) Seed(key Key, val any) {
	e := t.e
	if old, ok := e.nodes[key]; ok {
		old.orphaned.Store(true)
		delete(e.nodes, key)
		e.unlink(key)
	}
	e.nodes[key] = &entry{done: closedChan(), val: val}
	e.link(key)
	e.misses++
	e.nodeStats(key).Builds++
}

// entryDone reports whether a build's done channel is closed.
func entryDone(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// closedChan returns an already-closed channel: seeded entries are born
// complete.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
