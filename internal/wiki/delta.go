package wiki

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// ErrNoSuchArticle marks a delta that removes an article the corpus
// does not hold.
var ErrNoSuchArticle = errors.New("no such article")

// Delta is a batch of corpus edits: whole-article upserts (add or
// replace) and removals. A Delta is applied copy-on-write with
// Corpus.WithDelta.
type Delta struct {
	Upserts []*Article
	Removes []Key
}

// DeltaEffect summarizes what a Delta changed, in the terms the
// artifact cache needs for fine-grained invalidation.
type DeltaEffect struct {
	Added, Updated, Removed int
	// Types records, per language the delta touched, the entity types
	// whose article set changed — the union of every edited article's
	// old and new types, untyped articles excluded. A touched language
	// is present even when its type set is empty (e.g. an edit to an
	// untyped article), because titles and cross-links still feed the
	// pair-level dictionary.
	Types map[Language]map[string]bool
}

// Languages returns the languages the delta touched, sorted.
func (e *DeltaEffect) Languages() []Language {
	out := make([]Language, 0, len(e.Types))
	for l := range e.Types {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WithDelta applies the edit batch copy-on-write: it returns a new
// corpus sharing the untouched article values (articles are immutable
// throughout the pipeline) while c remains exactly as it was, so
// readers holding c — including in-flight artifact builds — are never
// disturbed. The new corpus copies only the index entries the edits
// touch: the article lists of the edited languages and entity types and
// the reverse cross-link lists of the changed links. Its Fingerprint is
// c's adjusted by the edited articles' digests, so the cost of a delta
// follows the size of the edit, not of the corpus.
//
// Per-language insertion order is preserved for surviving articles,
// with replacements substituted in place and additions appended (in
// key order); Corpus.Pairs therefore enumerates unchanged article
// pairs in the same order as before, which keeps artifacts built from
// untouched entity types byte-identical across the swap. The result
// equals a corpus built by adding its articles in that order.
//
// The whole batch validates before anything is applied: a nil or
// invalid upsert, a duplicate edit for one key, an upsert-and-remove
// of the same key, a removal of an absent article (ErrNoSuchArticle)
// or an empty delta each fail the call with no effect.
func (c *Corpus) WithDelta(d Delta) (*Corpus, *DeltaEffect, error) {
	if len(d.Upserts) == 0 && len(d.Removes) == 0 {
		return nil, nil, errors.New("delta: no edits")
	}
	up := make(map[Key]*Article, len(d.Upserts))
	for _, a := range d.Upserts {
		if a == nil {
			return nil, nil, errors.New("delta: nil upsert")
		}
		if err := a.Validate(); err != nil {
			return nil, nil, fmt.Errorf("delta: %w", err)
		}
		k := a.Key()
		if _, dup := up[k]; dup {
			return nil, nil, fmt.Errorf("delta: duplicate upsert %s", k)
		}
		up[k] = a
	}
	rm := make(map[Key]bool, len(d.Removes))
	for _, k := range d.Removes {
		if rm[k] {
			return nil, nil, fmt.Errorf("delta: duplicate remove %s", k)
		}
		if _, both := up[k]; both {
			return nil, nil, fmt.Errorf("delta: %s both upserted and removed", k)
		}
		if _, ok := c.byKey[k]; !ok {
			return nil, nil, fmt.Errorf("delta: remove %s: %w", k, ErrNoSuchArticle)
		}
		rm[k] = true
	}

	// Pair every edit's old article with its new one: a removal has no
	// new article, an addition no old one. Upserts are cloned so later
	// mutations on the caller's side cannot reach into the corpus.
	type edit struct{ old, new *Article }
	edits := make([]edit, 0, len(d.Removes)+len(d.Upserts))
	for _, k := range d.Removes {
		edits = append(edits, edit{old: c.byKey[k]})
	}
	var added []*Article
	for _, a := range d.Upserts {
		e := edit{old: c.byKey[a.Key()], new: a.Clone()}
		if e.old == nil {
			added = append(added, e.new)
		}
		edits = append(edits, e)
	}
	// Additions append in key order, after the surviving articles.
	slices.SortFunc(added, func(a, b *Article) int {
		return cmp.Or(cmp.Compare(a.Language, b.Language), cmp.Compare(a.Title, b.Title))
	})

	eff := &DeltaEffect{Types: make(map[Language]map[string]bool)}
	touch := func(a *Article) {
		tm := eff.Types[a.Language]
		if tm == nil {
			tm = make(map[string]bool)
			eff.Types[a.Language] = tm
		}
		if a.Type != "" {
			tm[a.Type] = true
		}
	}
	// Share every index entry, capped so an Add on either corpus copies
	// instead of appending into the other's backing array. Inner type
	// maps are cloned because Add writes into them.
	out := &Corpus{
		byKey:    maps.Clone(c.byKey),
		byLang:   make(map[Language][]*Article, len(c.byLang)+1),
		byType:   make(map[Language]map[string][]*Article, len(c.byType)+1),
		incoming: maps.Clone(c.incoming),
	}
	for l, arts := range c.byLang {
		out.byLang[l] = slices.Clip(arts)
	}
	for l, tm := range c.byType {
		cp := make(map[string][]*Article, len(tm))
		for t, arts := range tm {
			cp[t] = slices.Clip(arts)
		}
		out.byType[l] = cp
	}

	repl := make(map[*Article]*Article, len(edits)) // old → new, nil when removed
	fp := c.Fingerprint()
	for _, e := range edits {
		switch {
		case e.old == nil:
			eff.Added++
		case e.new == nil:
			eff.Removed++
		default:
			eff.Updated++
		}
		if e.old != nil {
			touch(e.old)
			repl[e.old] = e.new
			delete(out.byKey, e.old.Key())
			fp -= e.old.digest()
		}
		if e.new != nil {
			touch(e.new)
			out.byKey[e.new.Key()] = e.new
			fp += e.new.digest()
		}
	}
	out.fp.Store(&fp)

	// Rewrite the article lists of each touched language, and within it
	// the lists of the touched types.
	for lang, types := range eff.Types {
		old := c.byLang[lang]
		arts := make([]*Article, 0, len(old)+len(added))
		for _, a := range old {
			if n, ok := repl[a]; ok {
				if n == nil {
					continue
				}
				a = n
			}
			arts = append(arts, a)
		}
		for _, a := range added {
			if a.Language == lang {
				arts = append(arts, a)
			}
		}
		if len(arts) == 0 {
			delete(out.byLang, lang)
			delete(out.byType, lang)
			continue
		}
		out.byLang[lang] = slices.Clip(arts)
		if len(types) == 0 {
			continue
		}
		tm := out.byType[lang]
		if tm == nil {
			tm = make(map[string][]*Article)
			out.byType[lang] = tm
		}
		for t := range types {
			delete(tm, t)
		}
		for _, a := range arts {
			if types[a.Type] {
				tm[a.Type] = append(tm[a.Type], a)
			}
		}
		if len(tm) == 0 {
			delete(out.byType, lang)
		}
	}
	out.langList = slices.Sorted(maps.Keys(out.byLang))

	// Reverse cross-links: drop every link an edit lost, then add the
	// ones it gained. Only those lists are copied.
	for _, e := range edits {
		if e.old != nil {
			for l, t := range e.old.CrossLinks {
				if !linksTo(e.new, l, t) {
					out.unlinkIncoming(Key{Language: l, Title: t}, e.old.Key())
				}
			}
		}
	}
	for _, e := range edits {
		if e.new != nil {
			for l, t := range e.new.CrossLinks {
				if !linksTo(e.old, l, t) {
					out.linkIncoming(Key{Language: l, Title: t}, e.new.Key())
				}
			}
		}
	}
	return out, eff, nil
}

// linksTo reports whether a (which may be nil) cross-links to title in
// lang.
func linksTo(a *Article, lang Language, title string) bool {
	if a == nil {
		return false
	}
	t, ok := a.CrossLinks[lang]
	return ok && t == title
}

// unlinkIncoming removes k from the reverse cross-link list of target,
// copying the list.
func (c *Corpus) unlinkIncoming(target, k Key) {
	list := slices.DeleteFunc(slices.Clone(c.incoming[target]), func(x Key) bool { return x == k })
	if len(list) == 0 {
		delete(c.incoming, target)
		return
	}
	c.incoming[target] = slices.Clip(list)
}

// linkIncoming adds k to the reverse cross-link list of target, copying
// the list. Entries from k's language stay in that language's article
// order, which is the order a corpus built by Add would list them in:
// ReverseCrossLink returns the first of them.
func (c *Corpus) linkIncoming(target, k Key) {
	list := append(slices.Clip(c.incoming[target]), k)
	var slots []int
	for i, x := range list {
		if x.Language == k.Language {
			slots = append(slots, i)
		}
	}
	if len(slots) > 1 {
		pos := make(map[Key]int, len(slots))
		for _, i := range slots {
			pos[list[i]] = 0
		}
		for i, a := range c.byLang[k.Language] {
			if _, ok := pos[a.Key()]; ok {
				pos[a.Key()] = i
			}
		}
		same := make([]Key, len(slots))
		for j, i := range slots {
			same[j] = list[i]
		}
		slices.SortFunc(same, func(x, y Key) int { return pos[x] - pos[y] })
		for j, i := range slots {
			list[i] = same[j]
		}
	}
	c.incoming[target] = slices.Clip(list)
}
