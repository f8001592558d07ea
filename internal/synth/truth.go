package synth

import (
	"sort"

	"repro/internal/text"
	"repro/internal/wiki"
)

// GroundTruth is everything the generator knows that an evaluator needs:
// which surface attribute names realize which canonical attributes (the
// bilingual expert's alignment labels), how localized entity-type names
// map to canonical types, and the full entity records behind the corpus
// (used by the case study's relevance oracle).
type GroundTruth struct {
	// Types maps a canonical type id to its attribute-name truth.
	Types map[string]*TypeTruth
	// TypeNameToCanon maps, per language, the localized type string an
	// article carries (derived from its template) to the canonical type.
	TypeNameToCanon map[wiki.Language]map[string]string
	// Entities holds the generated entities per canonical type.
	Entities map[string][]*Entity
	// Injected is the ledger of deliberately injected cross-edition
	// inconsistencies (empty unless the Config's injection knobs are
	// set): the gold a consistency detector's precision/recall is scored
	// against.
	Injected []Injection
}

// Injection kinds, in the order planInjections tries them.
const (
	// InjectNumber perturbed a numeric literal in the victim edition.
	InjectNumber = "number"
	// InjectDate shifted the day of a date in the victim edition.
	InjectDate = "date"
	// InjectUnit swapped the unit/scale word keeping the magnitude.
	InjectUnit = "unit"
	// InjectDrop removed the attribute from the victim edition.
	InjectDrop = "drop"
)

// Injection is one ledger entry: which canonical attribute of which
// entity was corrupted, how, and in which edition.
type Injection struct {
	// Kind is one of the Inject* constants.
	Kind string
	// Entity is the generated entity's id.
	Entity string
	// Type is the canonical entity type.
	Type string
	// Canon is the canonical attribute the injection corrupted.
	Canon string
	// Lang is the victim edition that renders the wrong value.
	Lang wiki.Language
	// Titles are the entity's article titles in the editions that carry
	// the attribute, for matching detector findings back to the ledger.
	Titles map[wiki.Language]string
}

// TypeTruth records, for one entity type, which canonical attribute(s)
// each surface name realizes in each language. A surface name may realize
// several canonicals (polysemy: English "born" is both birth date and
// birth place; Vietnamese "kịch bản" is both written by and story by).
type TypeTruth struct {
	Canon    string
	CanonsOf map[wiki.Language]map[string][]string
}

// newTypeTruth builds the truth for a type from its spec.
func newTypeTruth(spec *TypeSpec) *TypeTruth {
	t := &TypeTruth{Canon: spec.Canon, CanonsOf: make(map[wiki.Language]map[string][]string)}
	for _, attr := range spec.Attrs {
		for lang, ns := range attr.Names {
			m := t.CanonsOf[lang]
			if m == nil {
				m = make(map[string][]string)
				t.CanonsOf[lang] = m
			}
			for _, n := range ns {
				key := text.Normalize(n.Name)
				if !containsStr(m[key], attr.Canon) {
					m[key] = append(m[key], attr.Canon)
				}
			}
		}
	}
	return t
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Canons returns the canonical attributes realized by a surface name in a
// language (nil if the name is unknown).
func (t *TypeTruth) Canons(lang wiki.Language, name string) []string {
	return t.CanonsOf[lang][text.Normalize(name)]
}

// Correct reports whether surface names a (in langA) and b (in langB)
// have the same meaning — i.e. their canonical attribute sets intersect.
// This is the correct(·,·) predicate of the paper's evaluation metrics,
// and it applies to intra-language pairs as well.
func (t *TypeTruth) Correct(langA wiki.Language, a string, langB wiki.Language, b string) bool {
	ca, cb := t.Canons(langA, a), t.Canons(langB, b)
	for _, x := range ca {
		for _, y := range cb {
			if x == y {
				return true
			}
		}
	}
	return false
}

// Names returns the known surface names for a language, sorted.
func (t *TypeTruth) Names(lang wiki.Language) []string {
	m := t.CanonsOf[lang]
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CrossPairs enumerates every correct cross-language surface-name pair
// (a in pair.A, b in pair.B), sorted for determinism.
func (t *TypeTruth) CrossPairs(pair wiki.LanguagePair) [][2]string {
	var out [][2]string
	for _, a := range t.Names(pair.A) {
		for _, b := range t.Names(pair.B) {
			if t.Correct(pair.A, a, pair.B, b) {
				out = append(out, [2]string{a, b})
			}
		}
	}
	return out
}

// CanonType resolves a localized type string to its canonical type id.
func (g *GroundTruth) CanonType(lang wiki.Language, localized string) (string, bool) {
	c, ok := g.TypeNameToCanon[lang][localized]
	return c, ok
}

// TruthFor returns the attribute truth for a canonical type.
func (g *GroundTruth) TruthFor(canonType string) (*TypeTruth, bool) {
	t, ok := g.Types[canonType]
	return t, ok
}
