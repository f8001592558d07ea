package wiki_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/wiki"
)

func compareKeys(a, b wiki.Key) int {
	if c := strings.Compare(string(a.Language), string(b.Language)); c != 0 {
		return c
	}
	return strings.Compare(a.Title, b.Title)
}

// model is the reference a derived corpus is checked against: each
// language's articles in the order WithDelta documents — survivors in
// place, replacements substituted, additions appended in key order.
type model map[wiki.Language][]*wiki.Article

func modelOf(c *wiki.Corpus) model {
	m := model{}
	for _, l := range c.Languages() {
		m[l] = slices.Clone(c.Articles(l))
	}
	return m
}

func (m model) apply(d wiki.Delta) model {
	up := make(map[wiki.Key]*wiki.Article)
	for _, a := range d.Upserts {
		up[a.Key()] = a
	}
	out := model{}
	for l, arts := range m {
		for _, a := range arts {
			k := a.Key()
			if slices.Contains(d.Removes, k) {
				continue
			}
			if n, ok := up[k]; ok {
				a = n
				delete(up, k)
			}
			out[l] = append(out[l], a)
		}
	}
	added := slices.SortedFunc(maps.Values(up), func(a, b *wiki.Article) int { return compareKeys(a.Key(), b.Key()) })
	for _, a := range added {
		out[a.Language] = append(out[a.Language], a)
	}
	return out
}

func (m model) get(k wiki.Key) *wiki.Article {
	for _, a := range m[k.Language] {
		if a.Title == k.Title {
			return a
		}
	}
	return nil
}

// rebuild adds the model's articles to a fresh corpus in model order.
func (m model) rebuild() *wiki.Corpus {
	c := wiki.NewCorpus()
	for _, l := range slices.Sorted(maps.Keys(m)) {
		for _, a := range m[l] {
			c.MustAdd(a)
		}
	}
	return c
}

// targets lists every article key and cross-link target of the models,
// the inputs ReverseCrossLink is probed with.
func targets(ms ...model) []wiki.Key {
	set := make(map[wiki.Key]bool)
	for _, m := range ms {
		for _, arts := range m {
			for _, a := range arts {
				set[a.Key()] = true
				for l, t := range a.CrossLinks {
					set[wiki.Key{Language: l, Title: t}] = true
				}
			}
		}
	}
	return slices.SortedFunc(maps.Keys(set), compareKeys)
}

// view renders everything a corpus answers through its accessors, so
// two corpora are equal exactly when their views are.
func view(c *wiki.Corpus, probe []wiki.Key) string {
	var b strings.Builder
	langs := c.Languages()
	fmt.Fprintf(&b, "languages %v len %d fingerprint %016x\n", langs, c.Len(), c.Fingerprint())
	for _, l := range langs {
		fmt.Fprintf(&b, "%s: %d articles, types %q\n", l, c.LenLang(l), c.Types(l))
		for _, a := range c.Articles(l) {
			fmt.Fprintf(&b, "  %s type=%q cats=%q links=%v", a.Key(), a.Type, a.Categories, a.SortedCrossLinks())
			if a.Infobox != nil {
				fmt.Fprintf(&b, " %q %v", a.Infobox.Template, a.Infobox.Attrs)
			}
			b.WriteByte('\n')
		}
		for _, typ := range c.Types(l) {
			fmt.Fprintf(&b, "  type %q:", typ)
			for _, a := range c.OfType(l, typ) {
				fmt.Fprintf(&b, " %q", a.Title)
			}
			b.WriteByte('\n')
		}
	}
	for _, la := range langs {
		for _, lb := range langs {
			if la == lb {
				continue
			}
			p := wiki.LanguagePair{A: la, B: lb}
			fmt.Fprintf(&b, "pairs %s:", p)
			for _, ap := range c.Pairs(p) {
				fmt.Fprintf(&b, " %q~%q", ap.A.Title, ap.B.Title)
			}
			fmt.Fprintf(&b, "\ntype pairs %s: %v\n", p, c.TypePairCount(p))
		}
	}
	fmt.Fprintf(&b, "stats %+v\n", c.Stats())
	for _, k := range probe {
		for _, from := range langs {
			if t, ok := c.ReverseCrossLink(k.Language, k.Title, from); ok {
				fmt.Fprintf(&b, "reverse %s <- %s:%s\n", k, from, t)
			}
		}
	}
	return b.String()
}

// diffLine reports the first line where two views differ.
func diffLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(g), len(w))
}

// deltaGen draws random edits against a corpus: value updates,
// additions (sometimes in a new language), removals, type changes,
// cross-link edits (sometimes onto a target another article of the same
// language already links to) and edits to untyped articles.
type deltaGen struct {
	rng  *rand.Rand
	c    *wiki.Corpus
	all  []*wiki.Article
	used map[wiki.Key]bool
	next *int
}

func (g *deltaGen) pick(ok func(*wiki.Article) bool) *wiki.Article {
	for range 200 {
		a := g.all[g.rng.Intn(len(g.all))]
		if !g.used[a.Key()] && ok(a) {
			g.used[a.Key()] = true
			return a
		}
	}
	return nil
}

func anyArticle(*wiki.Article) bool { return true }

func (g *deltaGen) newArticle(typed bool) *wiki.Article {
	langs := g.c.Languages()
	lang := langs[g.rng.Intn(len(langs))]
	if g.rng.Intn(5) == 0 {
		lang = "de"
	}
	*g.next++
	a := &wiki.Article{Language: lang, Title: fmt.Sprintf("Novo %d", *g.next)}
	if typed {
		a.Type = "novo"
		if types := g.c.Types(lang); len(types) > 0 && g.rng.Intn(2) == 0 {
			a.Type = types[g.rng.Intn(len(types))]
		}
		a.Infobox = &wiki.Infobox{Template: "Infobox " + a.Type,
			Attrs: []wiki.AttributeValue{{Name: "nome", Text: a.Title}}}
	}
	if t := g.all[g.rng.Intn(len(g.all))]; t.Language != lang {
		a.SetCrossLink(t.Language, t.Title)
	}
	return a
}

func (g *deltaGen) edit(d *wiki.Delta) {
	switch g.rng.Intn(6) {
	case 0: // value update
		if a := g.pick(func(a *wiki.Article) bool { return a.Infobox != nil && a.Infobox.Len() > 0 }); a != nil {
			u := a.Clone()
			u.Infobox.Attrs[g.rng.Intn(u.Infobox.Len())].Text += " (editado)"
			d.Upserts = append(d.Upserts, u)
		}
	case 1: // addition
		d.Upserts = append(d.Upserts, g.newArticle(g.rng.Intn(4) != 0))
	case 2: // removal
		if a := g.pick(anyArticle); a != nil {
			d.Removes = append(d.Removes, a.Key())
		}
	case 3: // type change, sometimes to untyped
		if a := g.pick(anyArticle); a != nil {
			u := a.Clone()
			u.Type = ""
			if types := g.c.Types(a.Language); len(types) > 0 && g.rng.Intn(4) != 0 {
				u.Type = types[g.rng.Intn(len(types))]
			}
			d.Upserts = append(d.Upserts, u)
		}
	case 4: // cross-link edit
		a := g.pick(anyArticle)
		if a == nil {
			return
		}
		u := a.Clone()
		switch other := g.all[g.rng.Intn(len(g.all))]; {
		case other.Language == u.Language && len(other.CrossLinks) > 0:
			// Share a target with another article of the same language.
			l := other.SortedCrossLinks()[0]
			u.SetCrossLink(l.Language, l.Title)
		case other.Language != u.Language:
			u.SetCrossLink(other.Language, other.Title)
		case len(u.CrossLinks) > 0:
			delete(u.CrossLinks, u.SortedCrossLinks()[0].Language)
		}
		d.Upserts = append(d.Upserts, u)
	case 5: // untyped edit: categories or links of an article without a type
		a := g.pick(func(a *wiki.Article) bool { return a.Type == "" })
		if a == nil {
			d.Upserts = append(d.Upserts, g.newArticle(false))
			return
		}
		u := a.Clone()
		u.Categories = append(u.Categories, "Editado")
		if t := g.all[g.rng.Intn(len(g.all))]; t.Language != u.Language {
			u.SetCrossLink(t.Language, t.Title)
		}
		d.Upserts = append(d.Upserts, u)
	}
}

// inverse is the delta that undoes d on the corpus it was applied to.
func inverse(before *wiki.Corpus, d wiki.Delta) wiki.Delta {
	var inv wiki.Delta
	for _, a := range d.Upserts {
		if old, ok := before.Get(a.Language, a.Title); ok {
			inv.Upserts = append(inv.Upserts, old.Clone())
		} else {
			inv.Removes = append(inv.Removes, a.Key())
		}
	}
	for _, k := range d.Removes {
		old, _ := before.Get(k.Language, k.Title)
		inv.Upserts = append(inv.Upserts, old.Clone())
	}
	return inv
}

// wantEffect is the DeltaEffect d must report against m: counts, per
// touched language the union of old and new types (untyped excluded),
// and structural when an edit adds, removes, or changes what the
// pair-level artifacts read of an article.
func wantEffect(m model, d wiki.Delta) wiki.DeltaEffect {
	pairInputs := func(a *wiki.Article) string {
		return fmt.Sprintf("type=%q infobox=%t links=%v", a.Type, a.Infobox != nil, a.SortedCrossLinks())
	}
	eff := wiki.DeltaEffect{Types: make(map[wiki.Language]map[string]bool)}
	touch := func(a *wiki.Article) {
		if eff.Types[a.Language] == nil {
			eff.Types[a.Language] = make(map[string]bool)
		}
		if a.Type != "" {
			eff.Types[a.Language][a.Type] = true
		}
	}
	for _, a := range d.Upserts {
		if old := m.get(a.Key()); old != nil {
			eff.Updated++
			eff.Structural = eff.Structural || pairInputs(old) != pairInputs(a)
			touch(old)
		} else {
			eff.Added++
			eff.Structural = true
		}
		touch(a)
	}
	for _, k := range d.Removes {
		eff.Removed++
		eff.Structural = true
		touch(m.get(k))
	}
	return eff
}

// applyChecked applies d and checks the result against a rebuild of the
// model, the expected effect, and pointer sharing of untouched articles.
func applyChecked(t *testing.T, c *wiki.Corpus, m model, d wiki.Delta) (*wiki.Corpus, model) {
	t.Helper()
	out, eff, err := c.WithDelta(d)
	if err != nil {
		t.Fatalf("WithDelta: %v", err)
	}
	want := wantEffect(m, d)
	if !reflect.DeepEqual(*eff, want) {
		t.Fatalf("effect = %+v, want %+v", *eff, want)
	}
	next := m.apply(d)
	probe := targets(m, next)
	if got, want := view(out, probe), view(next.rebuild(), probe); got != want {
		t.Fatalf("derived corpus differs from rebuild: %s", diffLine(got, want))
	}
	edited := make(map[wiki.Key]bool)
	for _, a := range d.Upserts {
		edited[a.Key()] = true
	}
	for _, l := range out.Languages() {
		for _, a := range out.Articles(l) {
			if old, ok := c.Get(a.Language, a.Title); ok && !edited[a.Key()] && old != a {
				t.Fatalf("untouched article %s copied instead of shared", a.Key())
			}
		}
	}
	return out, next
}

// smallCorpus is a synth corpus with three linked infobox pairs per
// entity type, a few hundred articles.
func smallCorpus(t *testing.T) *wiki.Corpus {
	t.Helper()
	cfg := synth.SmallConfig()
	for _, m := range []map[string]int{cfg.PtEnPairs, cfg.VnEnPairs} {
		for typ := range m {
			m[typ] = 3
		}
	}
	c, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWithDeltaEqualsRebuild: after every step of seeded random delta
// sequences from a synth corpus, the copy-on-write corpus answers every
// accessor exactly as a corpus built from scratch with the same articles
// in the same order, its incremental fingerprint equals the rebuild's,
// and undoing a step restores the previous fingerprint.
func TestWithDeltaEqualsRebuild(t *testing.T) {
	base := smallCorpus(t)
	probe := targets(modelOf(base))
	if got, want := view(base, probe), view(modelOf(base).rebuild(), probe); got != want {
		t.Fatalf("corpus differs from its rebuild before any delta: %s", diffLine(got, want))
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, m, next := base, modelOf(base), 0
			for step := 0; step < 30; step++ {
				g := &deltaGen{rng: rng, c: c, used: make(map[wiki.Key]bool), next: &next}
				for _, l := range c.Languages() {
					g.all = append(g.all, c.Articles(l)...)
				}
				// Every tenth delta is a batch large enough to take
				// WithDelta's map pass instead of pointer scans.
				n := 1 + rng.Intn(3)
				if step%10 == 9 {
					n = 60
				}
				var d wiki.Delta
				for len(d.Upserts)+len(d.Removes) < n {
					g.edit(&d)
				}
				before := c.Fingerprint()
				out, outModel := applyChecked(t, c, m, d)
				if rng.Intn(3) == 0 {
					back, backModel := applyChecked(t, out, outModel, inverse(c, d))
					if back.Fingerprint() != before {
						t.Fatalf("step %d: restore gave fingerprint %016x, want %016x", step, back.Fingerprint(), before)
					}
					out, outModel = back, backModel
				}
				c, m = out, outModel
			}
		})
	}
}

// TestWithDeltaNoAliasing: a derived corpus and its parent share index
// storage, but an Add on either never shows through the other, and Add
// keeps a memoized fingerprint equal to a fresh computation.
func TestWithDeltaNoAliasing(t *testing.T) {
	parent := smallCorpus(t)
	// Three articles linking to one target: its reverse-link list would
	// have spare capacity for an in-place append if Add did not cap it.
	for i := 1; i <= 3; i++ {
		a := &wiki.Article{Language: wiki.Portuguese, Title: fmt.Sprint("Alvo ", i)}
		a.SetCrossLink(wiki.English, "Alvo")
		parent.MustAdd(a)
	}
	parent.Fingerprint()
	upd := parent.Articles(wiki.Portuguese)[0].Clone()
	upd.Categories = append(upd.Categories, "Editado")
	child, _, err := parent.WithDelta(wiki.Delta{Upserts: []*wiki.Article{upd}})
	if err != nil {
		t.Fatal(err)
	}

	// Articles that append to every kind of shared index entry: each
	// language's list, a type list, and reverse-link lists both corpora
	// hold.
	extra := func(suffix string) []*wiki.Article {
		var out []*wiki.Article
		for _, l := range parent.Languages() {
			a := parent.OfType(l, parent.Types(l)[0])[0].Clone()
			a.Title += suffix
			out = append(out, a)
		}
		a := &wiki.Article{Language: "it", Title: "Alvo" + suffix}
		a.SetCrossLink(wiki.English, "Alvo")
		return append(out, a)
	}
	probe := append(targets(modelOf(parent), modelOf(child)), wiki.Key{Language: wiki.English, Title: "Alvo"})
	for _, a := range append(extra(" (parent)"), extra(" (child)")...) {
		probe = append(probe, a.Key())
	}

	parentView := view(parent, probe)
	for _, a := range extra(" (child)") {
		child.MustAdd(a)
	}
	if got := view(parent, probe); got != parentView {
		t.Fatalf("Add on the derived corpus changed its parent: %s", diffLine(got, parentView))
	}
	if got, want := child.Fingerprint(), modelOf(child).rebuild().Fingerprint(); got != want {
		t.Errorf("child fingerprint after Add = %016x, fresh computation %016x", got, want)
	}

	childView := view(child, probe)
	for _, a := range extra(" (parent)") {
		parent.MustAdd(a)
	}
	if got := view(child, probe); got != childView {
		t.Fatalf("Add on the parent changed the derived corpus: %s", diffLine(got, childView))
	}
	if got, want := parent.Fingerprint(), modelOf(parent).rebuild().Fingerprint(); got != want {
		t.Errorf("parent fingerprint after Add = %016x, fresh computation %016x", got, want)
	}
}

// TestWithDeltaConcurrent derives children from one parent on several
// goroutines at once while others read the parent: deriving freezes the
// parent's shared index shards, which must not race with readers or
// with another derivation. Each child carries exactly its own edit and
// the parent none.
func TestWithDeltaConcurrent(t *testing.T) {
	parent := smallCorpus(t)
	parent.Fingerprint()
	probe := targets(modelOf(parent))
	want := view(parent, probe)
	var edits []*wiki.Article
	for _, l := range parent.Languages() {
		for _, a := range parent.Articles(l) {
			if a.Infobox != nil && a.Infobox.Len() > 0 && len(edits) < 4 {
				u := a.Clone()
				u.Infobox.Attrs[0].Text += " (editado)"
				edits = append(edits, u)
			}
		}
	}
	var wg sync.WaitGroup
	for _, u := range edits {
		wg.Add(2)
		go func() {
			defer wg.Done()
			child, _, err := parent.WithDelta(wiki.Delta{Upserts: []*wiki.Article{u}})
			if err != nil {
				t.Error(err)
				return
			}
			got, _ := child.Get(u.Language, u.Title)
			if got.Infobox.Attrs[0].Text != u.Infobox.Attrs[0].Text || child.Len() != parent.Len() {
				t.Errorf("child of the %s edit does not carry it", u.Key())
			}
		}()
		go func() {
			defer wg.Done()
			if got := view(parent, probe); got != want {
				t.Errorf("parent changed under concurrent derivation: %s", diffLine(got, want))
			}
		}()
	}
	wg.Wait()
	if got := view(parent, probe); got != want {
		t.Fatalf("parent changed by derivation: %s", diffLine(got, want))
	}
}
