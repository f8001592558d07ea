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
// artifact cache needs for fine-grained invalidation: which entity
// types' article sets changed, and whether the pair-level artifacts
// (the title dictionary and the entity-type alignment) can have
// changed at all.
type DeltaEffect struct {
	Added, Updated, Removed int
	// Types records, per language the delta touched, the entity types
	// whose article set changed — the union of every edited article's
	// old and new types, untyped articles excluded. A touched language
	// is present even when its type set is empty (e.g. an edit to an
	// untyped article), because titles and cross-links still feed the
	// pair-level dictionary.
	Types map[Language]map[string]bool
	// Structural reports that some edit could change a pair-level
	// artifact: an addition, a removal, or an update that changes the
	// article's Type, its CrossLinks (nil and empty count as equal) or
	// whether it has an Infobox. Those are all the dictionary and the
	// alignment read, so a delta that is not structural (infobox values
	// and templates, categories) leaves both unchanged. Title is part of
	// the key: a retitle is a removal plus an addition.
	Structural bool
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
// disturbed. The key indexes (articles by key, reverse cross-links) are
// split into a fixed number of shards: the new corpus copies the shard
// array and clones only the shards the edits write to. The article list
// of each edited language and entity type is copied from its old list
// with the edited articles swapped in place; a type list an article
// enters (an addition or a retype) is relisted from its language. Its
// Fingerprint is c's adjusted by the edited articles' digests. A value
// edit therefore costs a copy of its language's and type's article
// lists, not a pass over the corpus.
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
		if _, ok := c.byKey.get(k); !ok {
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
		old, _ := c.byKey.get(k)
		edits = append(edits, edit{old: old})
	}
	var added []*Article
	for _, a := range d.Upserts {
		old, _ := c.byKey.get(a.Key())
		e := edit{old: old, new: a.Clone()}
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
	out := &Corpus{
		byKey:    c.byKey.share(),
		byLang:   make(map[Language][]*Article, len(c.byLang)+1),
		byType:   make(map[Language]map[string][]*Article, len(c.byType)+1),
		incoming: c.incoming.share(),
	}
	repl := make(map[Language]map[*Article]*Article) // old → new, nil when removed
	fp := c.Fingerprint()
	for _, e := range edits {
		switch {
		case e.old == nil:
			eff.Added++
			eff.Structural = true
		case e.new == nil:
			eff.Removed++
			eff.Structural = true
		default:
			eff.Updated++
			eff.Structural = eff.Structural || structuralUpdate(e.old, e.new)
		}
		if e.old != nil {
			touch(e.old)
			fp -= e.old.digest()
			if repl[e.old.Language] == nil {
				repl[e.old.Language] = make(map[*Article]*Article)
			}
			repl[e.old.Language][e.old] = e.new
		}
		if e.new != nil {
			touch(e.new)
			fp += e.new.digest()
			out.byKey.set(e.new.Key(), e.new)
		} else {
			out.byKey.delete(e.old.Key())
		}
	}
	out.fp.Store(&fp)

	// Share every untouched list, capped so an Add on either corpus
	// copies instead of appending into the other's backing array. Inner
	// type maps are cloned because Add writes into them.
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

	// Rewrite the list of each touched language, and within it the
	// lists of the touched types.
	for lang, types := range eff.Types {
		arts := replaced(c.byLang[lang], repl[lang])
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
			// Articles that stay in t are swapped in place and those
			// that leave drop out; one that enters has no old slot, so
			// the list is relisted from the language.
			typeRepl := make(map[*Article]*Article)
			entering := false
			for _, e := range edits {
				was := e.old != nil && e.old.Language == lang && e.old.Type == t
				is := e.new != nil && e.new.Language == lang && e.new.Type == t
				switch {
				case was && is:
					typeRepl[e.old] = e.new
				case was:
					typeRepl[e.old] = nil
				case is:
					entering = true
				}
			}
			var list []*Article
			if entering {
				for _, a := range arts {
					if a.Type == t {
						list = append(list, a)
					}
				}
			} else {
				list = replaced(c.byType[lang][t], typeRepl)
			}
			if len(list) == 0 {
				delete(tm, t)
			} else {
				tm[t] = slices.Clip(list)
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

// scanEdits is the batch size up to which replaced finds each edited
// article by a pointer scan of the list; larger batches look every
// article up in the edit map instead, one pass whatever the batch.
const scanEdits = 16

// replaced returns a copy of list with each article that is a key of
// repl swapped for its value, or dropped when the value is nil.
func replaced(list []*Article, repl map[*Article]*Article) []*Article {
	out := slices.Clone(list)
	if len(repl) <= scanEdits {
		for old, n := range repl {
			if i := slices.Index(out, old); i >= 0 {
				out[i] = n
			}
		}
	} else {
		for i, a := range out {
			if n, ok := repl[a]; ok {
				out[i] = n
			}
		}
	}
	return slices.DeleteFunc(out, func(a *Article) bool { return a == nil })
}

// structuralUpdate reports whether replacing old with new (same key)
// could change a pair-level artifact: the dictionary reads titles and
// cross-links, the entity-type alignment types, cross-links and which
// articles carry an infobox.
func structuralUpdate(old, new *Article) bool {
	return old.Type != new.Type ||
		(old.Infobox == nil) != (new.Infobox == nil) ||
		!maps.Equal(old.CrossLinks, new.CrossLinks)
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
	list, _ := c.incoming.get(target)
	list = slices.DeleteFunc(slices.Clone(list), func(x Key) bool { return x == k })
	if len(list) == 0 {
		c.incoming.delete(target)
		return
	}
	c.incoming.set(target, slices.Clip(list))
}

// linkIncoming adds k to the reverse cross-link list of target, copying
// the list. Entries from k's language stay in that language's article
// order, which is the order a corpus built by Add would list them in:
// ReverseCrossLink returns the first of them.
func (c *Corpus) linkIncoming(target, k Key) {
	list, _ := c.incoming.get(target)
	list = append(slices.Clip(list), k)
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
	c.incoming.set(target, slices.Clip(list))
}
