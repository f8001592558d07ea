package wiki

import "sort"

// Entity-type assignment from categories. Section 2 of the paper lists
// three mechanisms for typing an article: the infobox template, the
// article's categories, and clustering by infobox structure. ParsePage
// derives the type from the template; this file provides the
// category-based alternative, so corpora whose infobox templates are
// unusable (bare "{{Infobox}}" without a type, template-less records)
// can still be typed.

// CategoryTypeMap maps a category name to the entity-type string
// articles carrying it should receive, per language.
type CategoryTypeMap map[Language]map[string]string

// AssignTypesFromCategories fills in the Type of every article that has
// none, using its categories and the mapping. It returns how many
// articles were typed. Articles typed this way are also added to the
// corpus's type index, whose lists stay in language order as if the
// articles had been added with their types. It edits articles in place,
// so it belongs to building a corpus, before any corpus derived from it
// by WithDelta shares those articles; it does drop this corpus's
// Fingerprint memo.
func (c *Corpus) AssignTypesFromCategories(m CategoryTypeMap) int {
	n := 0
	for _, lang := range c.Languages() {
		langMap := m[lang]
		if langMap == nil {
			continue
		}
		typed := make(map[string]bool)
		for _, a := range c.Articles(lang) {
			if a.Type != "" {
				continue
			}
			for _, cat := range a.Categories {
				if typ, ok := langMap[cat]; ok {
					a.Type = typ
					typed[typ] = true
					n++
					break
				}
			}
		}
		if len(typed) == 0 {
			continue
		}
		// Relist each type that gained articles from the language list,
		// so template- and category-typed articles interleave in order.
		tm := c.byType[lang]
		if tm == nil {
			tm = make(map[string][]*Article)
			c.byType[lang] = tm
		}
		for typ := range typed {
			delete(tm, typ)
		}
		for _, a := range c.Articles(lang) {
			if typed[a.Type] {
				tm[a.Type] = append(tm[a.Type], a)
			}
		}
	}
	if n > 0 {
		c.fp.Store(nil)
	}
	return n
}

// CategoryIndex builds a category → article-count table for one
// language, useful for deriving a CategoryTypeMap by inspection.
func (c *Corpus) CategoryIndex(lang Language) []struct {
	Category string
	Count    int
} {
	counts := map[string]int{}
	for _, a := range c.Articles(lang) {
		for _, cat := range a.Categories {
			counts[cat]++
		}
	}
	out := make([]struct {
		Category string
		Count    int
	}, 0, len(counts))
	for cat, n := range counts {
		out = append(out, struct {
			Category string
			Count    int
		}{cat, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Category < out[j].Category
	})
	return out
}
