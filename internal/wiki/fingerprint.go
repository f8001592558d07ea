package wiki

import "slices"

// Fingerprint returns a stable 64-bit digest of the corpus content: the
// sum, mod 2^64, of every article's digest (see Article.digest). Each
// digest covers the article's language, title, entity type, categories,
// cross-language links and infobox attribute–value pairs (including link
// targets), so the fingerprint does not depend on insertion order, and
// any content change — an added article, a renamed attribute, an edited
// value — changes it.
//
// The value is computed on the first call and memoized on the corpus;
// concurrent first calls are safe. Add keeps the memo current, and
// WithDelta derives the new corpus's fingerprint from this one by
// subtracting the digests of the articles it replaces or removes and
// adding those of the articles it brings in, without rehashing. Articles
// are therefore immutable once fingerprinted: mutating one in place
// afterwards leaves the memo stale.
//
// The persistence layer keys artifact snapshots by this fingerprint so a
// snapshot built from one corpus is rejected, not silently served, when
// loaded against another.
func (c *Corpus) Fingerprint() uint64 {
	if p := c.fp.Load(); p != nil {
		return *p
	}
	var sum uint64
	for _, a := range c.byKey {
		sum += a.digest()
	}
	c.fp.Store(&sum)
	return sum
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a is an allocation-free FNV-1a hash state.
type fnv64a uint64

func (h *fnv64a) byte(b byte) {
	*h ^= fnv64a(b)
	*h *= fnvPrime64
}

// int hashes v as its unsigned varint encoding.
func (h *fnv64a) int(v int) {
	u := uint64(v)
	for u >= 0x80 {
		h.byte(byte(u) | 0x80)
		u >>= 7
	}
	h.byte(byte(u))
}

// str length-prefixes s so field boundaries cannot alias ("ab"+"c" vs
// "a"+"bc").
func (h *fnv64a) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// digest is the article's contribution to Corpus.Fingerprint: a
// length-prefixed FNV-1a walk of its fields, cross-links in language
// order, finished with the SplitMix64 mixer so the digests of similar
// articles do not cancel or collide when summed.
func (a *Article) digest() uint64 {
	h := fnv64a(fnvOffset64)
	h.str(string(a.Language))
	h.str(a.Title)
	h.str(a.Type)
	h.int(len(a.Categories))
	for _, cat := range a.Categories {
		h.str(cat)
	}
	var buf [16]Language
	langs := buf[:0]
	for l := range a.CrossLinks {
		langs = append(langs, l)
	}
	slices.Sort(langs)
	h.int(len(langs))
	for _, l := range langs {
		h.str(string(l))
		h.str(a.CrossLinks[l])
	}
	if a.Infobox == nil {
		h.int(0)
	} else {
		h.int(1)
		h.str(a.Infobox.Template)
		h.int(len(a.Infobox.Attrs))
		for _, av := range a.Infobox.Attrs {
			h.str(av.Name)
			h.str(av.Text)
			h.int(len(av.Links))
			for _, l := range av.Links {
				h.str(l.Target)
				h.str(l.Anchor)
			}
		}
	}
	x := uint64(h)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
