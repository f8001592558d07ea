package router

import (
	"testing"

	"repro/internal/wiki"
)

// TestShardForDeterministic: the map is orientation-independent, stable
// across calls, and in range.
func TestShardForDeterministic(t *testing.T) {
	pairs := []wiki.LanguagePair{
		{A: "pt", B: "en"}, {A: "vi", B: "en"}, {A: "pt", B: "vi"},
		{A: "de", B: "fr"}, {A: "es", B: "en"}, {A: "ja", B: "ko"},
	}
	for count := 1; count <= 5; count++ {
		for _, p := range pairs {
			got := ShardFor(p, count)
			if got < 0 || got >= count {
				t.Fatalf("ShardFor(%s, %d) = %d out of range", p, count, got)
			}
			flipped := wiki.LanguagePair{A: p.B, B: p.A}
			if ShardFor(flipped, count) != got {
				t.Errorf("ShardFor not orientation-independent for %s among %d", p, count)
			}
			if ShardFor(p, count) != got {
				t.Errorf("ShardFor unstable for %s among %d", p, count)
			}
		}
	}
	if ShardFor(wiki.PtEn, 1) != 0 || ShardFor(wiki.PtEn, 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
}

// TestShardForSeparatesConcatenations: the implicit NUL separator keeps
// pairs with identical concatenations apart (the hash of "ab"+"c" must
// not equal "a"+"bc").
func TestShardForSeparatesConcatenations(t *testing.T) {
	a := wiki.LanguagePair{A: "ab", B: "c"}
	b := wiki.LanguagePair{A: "a", B: "bc"}
	const count = 1 << 16 // wide modulus: a collision here means the hashes agree
	if ShardFor(a, count) == ShardFor(b, count) {
		t.Error("concatenation-colliding pairs hash identically; separator is broken")
	}
}

// TestShardForHyphenatedCodes: the map hashes the two side strings
// separately (never a "-"-joined rendering), so hyphen-bearing edition
// codes behave exactly like plain ones: orientation-independent, in
// range, and distinct from pairs whose hyphen-joined renderings would
// collide ("zh-min"+"nan" vs "zh"+"min-nan").
func TestShardForHyphenatedCodes(t *testing.T) {
	pairs := []wiki.LanguagePair{
		{A: "zh-min-nan", B: "en"}, {A: "be-tarask", B: "en"},
		{A: "nds-nl", B: "zh-min-nan"},
	}
	for count := 1; count <= 5; count++ {
		for _, p := range pairs {
			got := ShardFor(p, count)
			if got < 0 || got >= count {
				t.Fatalf("ShardFor(%s, %d) = %d out of range", p, count, got)
			}
			if ShardFor(wiki.LanguagePair{A: p.B, B: p.A}, count) != got {
				t.Errorf("ShardFor not orientation-independent for %s among %d", p, count)
			}
		}
	}
	a := wiki.LanguagePair{A: "zh-min", B: "nan"}
	b := wiki.LanguagePair{A: "zh", B: "min-nan"}
	const wide = 1 << 16
	if ShardFor(a, wide) == ShardFor(b, wide) {
		t.Error("hyphen-joined renderings collide; shard map must hash sides separately")
	}
}

// TestOwnedPartition: across every shard, Owned covers each pair
// exactly once, on the shard ShardFor names.
func TestOwnedPartition(t *testing.T) {
	pairs := []wiki.LanguagePair{
		{A: "pt", B: "en"}, {A: "vi", B: "en"}, {A: "pt", B: "vi"},
		{A: "de", B: "en"}, {A: "fr", B: "en"}, {A: "de", B: "fr"},
	}
	const count = 3
	owners := make([]func(wiki.LanguagePair) bool, count)
	for i := range owners {
		owners[i] = Owned(i, count)
	}
	for _, p := range pairs {
		n := 0
		for i, owned := range owners {
			if owned(p) {
				n++
				if i != ShardFor(p, count) {
					t.Errorf("pair %s owned by shard %d, ShardFor says %d", p, i, ShardFor(p, count))
				}
			}
		}
		if n != 1 {
			t.Errorf("pair %s owned by %d shards, want exactly 1", p, n)
		}
	}
}

// TestShardMapSpread: with a healthy number of synthetic pairs, no
// shard of a 3-way map ends up empty — a weak but real guard against a
// degenerate hash.
func TestShardMapSpread(t *testing.T) {
	langs := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	var pairs []wiki.LanguagePair
	for i, a := range langs {
		for _, b := range langs[i+1:] {
			pairs = append(pairs, wiki.LanguagePair{A: wiki.Language(a), B: wiki.Language(b)})
		}
	}
	owned := make([]int, 3)
	for _, p := range pairs {
		owned[ShardFor(p, 3)]++
	}
	for i, n := range owned {
		if n == 0 {
			t.Errorf("shard %d owns no pairs out of %d", i, len(pairs))
		}
	}
}
