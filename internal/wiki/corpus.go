package wiki

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Corpus is a collection of articles across language editions with the
// indices the matching pipeline needs: lookup by title, grouping by entity
// type, and resolution of cross-language links into article pairs.
type Corpus struct {
	byKey  keyIndex[*Article]
	byLang map[Language][]*Article
	// byType lists each language's articles by entity type, each list in
	// the language list's order.
	byType   map[Language]map[string][]*Article
	langList []Language
	// incoming indexes reverse cross-language links: for an article key
	// K, incoming[K] lists articles that declare a cross-link to K. Each
	// list is kept at cap == len, so corpora derived by WithDelta can
	// share it and an append on either side always copies.
	incoming keyIndex[[]Key]
	// fp memoizes Fingerprint; nil until the first call.
	fp atomic.Pointer[uint64]
}

// NewCorpus returns an empty corpus ready for use.
func NewCorpus() *Corpus {
	return &Corpus{
		byLang: make(map[Language][]*Article),
		byType: make(map[Language]map[string][]*Article),
	}
}

// Add inserts an article into the corpus. It returns an error if the
// article fails validation or an article with the same key already exists.
func (c *Corpus) Add(a *Article) error {
	if err := a.Validate(); err != nil {
		return err
	}
	k := a.Key()
	if !c.byKey.insert(k, a) {
		return fmt.Errorf("duplicate article %s", k)
	}
	if _, seen := c.byLang[a.Language]; !seen {
		c.langList = append(c.langList, a.Language)
		sort.Slice(c.langList, func(i, j int) bool { return c.langList[i] < c.langList[j] })
	}
	c.byLang[a.Language] = append(c.byLang[a.Language], a)
	if a.Type != "" {
		tm := c.byType[a.Language]
		if tm == nil {
			tm = make(map[string][]*Article)
			c.byType[a.Language] = tm
		}
		tm[a.Type] = append(tm[a.Type], a)
	}
	for l, t := range a.CrossLinks {
		target := Key{Language: l, Title: t}
		list, _ := c.incoming.get(target)
		c.incoming.set(target, append(slices.Clip(list), k))
	}
	if p := c.fp.Load(); p != nil {
		fp := *p + a.digest()
		c.fp.Store(&fp)
	}
	return nil
}

// ReverseCrossLink finds the title of an article in `from` that declares
// a cross-language link to (lang, title). It complements Resolve for
// links recorded only on the other side.
func (c *Corpus) ReverseCrossLink(lang Language, title string, from Language) (string, bool) {
	list, _ := c.incoming.get(Key{Language: lang, Title: title})
	for _, k := range list {
		if k.Language == from {
			return k.Title, true
		}
	}
	return "", false
}

// MustAdd inserts an article and panics on error; intended for generators
// and tests where the input is constructed and known valid.
func (c *Corpus) MustAdd(a *Article) {
	if err := c.Add(a); err != nil {
		panic(err)
	}
}

// Get returns the article with the given language and title.
func (c *Corpus) Get(lang Language, title string) (*Article, bool) {
	return c.byKey.get(Key{Language: lang, Title: title})
}

// Languages returns the language editions present, sorted.
func (c *Corpus) Languages() []Language {
	return append([]Language(nil), c.langList...)
}

// Articles returns all articles in a language, in insertion order.
func (c *Corpus) Articles(lang Language) []*Article {
	return c.byLang[lang]
}

// Len returns the total number of articles across all languages.
func (c *Corpus) Len() int { return c.byKey.n }

// LenLang returns the number of articles in one language.
func (c *Corpus) LenLang(lang Language) int { return len(c.byLang[lang]) }

// Types returns the entity types present in a language, sorted.
func (c *Corpus) Types(lang Language) []string {
	tm := c.byType[lang]
	types := make([]string, 0, len(tm))
	for t := range tm {
		types = append(types, t)
	}
	sort.Strings(types)
	return types
}

// OfType returns the articles of a given entity type in a language.
func (c *Corpus) OfType(lang Language, typ string) []*Article {
	return c.byType[lang][typ]
}

// Resolve follows an article's cross-language link into lang and returns
// the landing article, if both the link and the article exist.
func (c *Corpus) Resolve(a *Article, lang Language) (*Article, bool) {
	title, ok := a.CrossLink(lang)
	if !ok {
		return nil, false
	}
	return c.Get(lang, title)
}

// ArticlePair is a pair of articles in two languages connected by a
// cross-language link — the unit from which dual-language infobox schemas
// (Section 2) are formed.
type ArticlePair struct {
	A, B *Article
}

// Pairs returns every article pair (a, b) with a in pair.A and b in pair.B
// such that a cross-language link connects them (in either direction) and
// both articles carry an infobox. The result is in insertion order of the
// pair.A side.
func (c *Corpus) Pairs(pair LanguagePair) []ArticlePair {
	var out []ArticlePair
	seen := make(map[Key]bool)
	for _, a := range c.byLang[pair.A] {
		if a.Infobox == nil {
			continue
		}
		b, ok := c.Resolve(a, pair.B)
		if !ok || b.Infobox == nil {
			continue
		}
		out = append(out, ArticlePair{A: a, B: b})
		seen[a.Key()] = true
	}
	// Also honor links recorded only on the pair.B side.
	for _, b := range c.byLang[pair.B] {
		if b.Infobox == nil {
			continue
		}
		a, ok := c.Resolve(b, pair.A)
		if !ok || a.Infobox == nil || seen[a.Key()] {
			continue
		}
		out = append(out, ArticlePair{A: a, B: b})
		seen[a.Key()] = true
	}
	return out
}

// CrossLinked reports whether articles a and b (in different languages)
// are connected by a cross-language link in either direction.
func (c *Corpus) CrossLinked(a, b *Article) bool {
	if a == nil || b == nil || a.Language == b.Language {
		return false
	}
	if t, ok := a.CrossLink(b.Language); ok && t == b.Title {
		return true
	}
	if t, ok := b.CrossLink(a.Language); ok && t == a.Title {
		return true
	}
	return false
}

// TypePairCount tallies, for every (type in pair.A, type in pair.B)
// combination, how many cross-linked infobox pairs connect them. This is
// the voting table used for entity-type matching across languages
// (Section 3.1).
func (c *Corpus) TypePairCount(pair LanguagePair) map[[2]string]int {
	counts := make(map[[2]string]int)
	for _, p := range c.Pairs(pair) {
		if p.A.Type == "" || p.B.Type == "" {
			continue
		}
		counts[[2]string{p.A.Type, p.B.Type}]++
	}
	return counts
}

// Stats summarizes a corpus for reporting. Languages lists the
// editions present, sorted — explicit rather than implied by map keys,
// so wire consumers of /v1/corpus see the data-driven language set
// directly.
type Stats struct {
	Languages  []Language
	Articles   map[Language]int
	Infoboxes  map[Language]int
	Types      map[Language]int
	CrossPairs map[string]int // language pair ("pt-en") → linked infobox pairs
}

// Stats computes summary statistics over the corpus.
func (c *Corpus) Stats() Stats {
	s := Stats{
		Languages:  c.Languages(),
		Articles:   make(map[Language]int),
		Infoboxes:  make(map[Language]int),
		Types:      make(map[Language]int),
		CrossPairs: make(map[string]int),
	}
	for _, lang := range c.langList {
		s.Articles[lang] = len(c.byLang[lang])
		n := 0
		for _, a := range c.byLang[lang] {
			if a.Infobox != nil {
				n++
			}
		}
		s.Infoboxes[lang] = n
		s.Types[lang] = len(c.byType[lang])
	}
	for i, la := range c.langList {
		for _, lb := range c.langList[i+1:] {
			p := LanguagePair{A: la, B: lb}
			s.CrossPairs[p.String()] = len(c.Pairs(p))
		}
	}
	return s
}
