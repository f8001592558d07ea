package wiki

import (
	"iter"
	"maps"
	"sync/atomic"
)

// indexShards is the fixed shard count of a keyIndex.
const indexShards = 256

// keyIndex maps article keys to values, split into indexShards shards
// chosen by FNV-1a of the key. Corpora derived by WithDelta share
// shards: share freezes every shard, and a write to a frozen shard
// clones it first. A derived corpus therefore copies the 256-pointer
// shard array and the few shards its edit touches, never the index.
//
// The zero value is an empty index.
type keyIndex[V any] struct {
	shards [indexShards]*keyShard[V]
	n      int
}

type keyShard[V any] struct {
	m map[Key]V
	// frozen marks a shard that more than one index may hold: it is
	// never written again, only cloned.
	frozen atomic.Bool
}

func shardOf(k Key) int {
	h := fnv64a(fnvOffset64)
	h.str(string(k.Language))
	h.str(k.Title)
	return int(uint64(h) % indexShards)
}

func (x *keyIndex[V]) get(k Key) (V, bool) {
	s := x.shards[shardOf(k)]
	if s == nil {
		var zero V
		return zero, false
	}
	v, ok := s.m[k]
	return v, ok
}

// writable returns the map of k's shard, creating the shard or cloning
// a frozen one first.
func (x *keyIndex[V]) writable(k Key) map[Key]V {
	i := shardOf(k)
	s := x.shards[i]
	switch {
	case s == nil:
		s = &keyShard[V]{m: make(map[Key]V)}
		x.shards[i] = s
	case s.frozen.Load():
		s = &keyShard[V]{m: maps.Clone(s.m)}
		x.shards[i] = s
	}
	return s.m
}

// insert sets k to v unless k is present, and reports whether it did.
func (x *keyIndex[V]) insert(k Key, v V) bool {
	m := x.writable(k)
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = v
	x.n++
	return true
}

func (x *keyIndex[V]) set(k Key, v V) {
	m := x.writable(k)
	if _, ok := m[k]; !ok {
		x.n++
	}
	m[k] = v
}

func (x *keyIndex[V]) delete(k Key) {
	if _, ok := x.get(k); ok {
		delete(x.writable(k), k)
		x.n--
	}
}

// all yields every entry, shard by shard.
func (x *keyIndex[V]) all() iter.Seq2[Key, V] {
	return func(yield func(Key, V) bool) {
		for _, s := range x.shards {
			if s == nil {
				continue
			}
			for k, v := range s.m {
				if !yield(k, v) {
					return
				}
			}
		}
	}
}

// share freezes x's shards and returns an index holding the same ones.
// Writes to either index clone the shard they touch.
func (x *keyIndex[V]) share() keyIndex[V] {
	for _, s := range x.shards {
		if s != nil && !s.frozen.Load() {
			s.frozen.Store(true)
		}
	}
	return keyIndex[V]{shards: x.shards, n: x.n}
}
