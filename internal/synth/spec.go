// Package synth generates a synthetic multilingual Wikipedia: articles
// with infoboxes in English, Portuguese and Vietnamese, connected by
// cross-language links, together with the ground-truth attribute
// alignments a bilingual expert would produce.
//
// The generator substitutes for the Wikipedia dumps used in the paper's
// evaluation (README "Architecture map"). It reproduces the statistical
// properties the matching algorithms feed on:
//
//   - per-type attribute-set overlap across languages, matched to the
//     paper's Table 5;
//   - schema drift: each infobox carries a random subset of its type's
//     attributes;
//   - synonym splitting: one canonical attribute surfaces under several
//     names in one language (died → falecimento/morte), producing the
//     1-to-many alignments of Table 1;
//   - shared values rendered per language, with entity-valued atoms
//     hyperlinked to stub articles that carry cross-language links
//     (feeding lsim and the title-translation dictionary);
//   - value noise: dropped atoms, perturbed literals, misfiled values;
//   - rare attributes and ground-truth pairs that never co-occur in any
//     dual-language infobox (the prêmios/awards limitation of §4.1).
//
// For the consistency-audit workload the generator can additionally
// inject *ledgered* inconsistencies: with the Config knobs
// InjectNumberProb / InjectDateProb / InjectUnitProb / InjectDropProb
// set, one edition's rendering of a shared value is deliberately
// faulted — a numeric literal nudged, a date shifted, a unit or
// currency scale swapped at constant magnitude, or a value dropped
// entirely — and every fault is recorded as an Injection in the
// GroundTruth's Injected ledger (entity titles, canonical attribute,
// victim language, kind). AuditEvalConfig bundles the scoring setup:
// SmallConfig with rendering noise zeroed (so injected faults are the
// only disagreements) and all four knobs on; internal/audit's Evaluate
// scores a detector's precision/recall against the ledger.
package synth

import (
	"repro/internal/wiki"
)

// Kind is the value domain of a canonical attribute; it controls how
// value atoms are sampled and rendered per language.
type Kind int

// Value domains.
const (
	KindPerson   Kind = iota // person entity reference (same surface across languages)
	KindPlace                // place entity reference (translated titles)
	KindOrg                  // organization entity reference (same surface)
	KindGenre                // genre entity reference (translated titles)
	KindLangName             // language-name entity reference (translated)
	KindWork                 // reference to another generated entity of some type
	KindDate                 // full date literal, rendered per language conventions
	KindYear                 // bare year literal
	KindDuration             // "160 minutes" style literal
	KindMoney                // "$23 million" style literal
	KindNumber               // plain number literal
	KindURL                  // identical-across-languages URL literal
	KindTerm                 // small translated vocabulary (occupations, formats, …)
	KindSelf                 // the article's own title (the "name" attribute)
	KindSpan                 // language-neutral span literal ("1970–1995", ISBNs)
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	names := [...]string{"person", "place", "org", "genre", "langname", "work",
		"date", "year", "duration", "money", "number", "url", "term", "self", "span"}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// Entity-reference kinds produce hyperlinks in rendered values.
func (k Kind) isRef() bool {
	switch k {
	case KindPerson, KindPlace, KindOrg, KindGenre, KindLangName, KindWork:
		return true
	}
	return false
}

// WeightedName is one surface name for an attribute in a language, with a
// selection weight. A language whose lexicon lists several names for the
// same canonical attribute exhibits intra-language synonymy.
type WeightedName struct {
	Name string
	W    float64
}

// N is shorthand for a single surface name with weight 1.
func N(name string) []WeightedName { return []WeightedName{{Name: name, W: 1}} }

// N2 builds a two-synonym surface-name list.
func N2(a string, wa float64, b string, wb float64) []WeightedName {
	return []WeightedName{{Name: a, W: wa}, {Name: b, W: wb}}
}

// AttrSpec describes one canonical (latent) attribute of an entity type.
type AttrSpec struct {
	// Canon is the language-neutral identity of the attribute; ground
	// truth aligns surface names that share it.
	Canon string
	// Kind is the attribute's value domain.
	Kind Kind
	// MinAtoms/MaxAtoms bound how many value atoms an entity gets.
	MinAtoms, MaxAtoms int
	// Names holds the surface names per language. A language absent from
	// the map does not carry the attribute at all (template-level
	// heterogeneity, e.g. "budget" missing from Portuguese film
	// templates).
	Names map[wiki.Language][]WeightedName
	// Freq is the probability that an entity's infobox includes this
	// attribute (subject to the per-type overlap model); default 1.
	Freq float64
	// Vocab restricts KindTerm attributes to a named vocabulary.
	Vocab string
	// Literal is the literal-but-wrong English rendering a machine
	// translation system produces for this attribute's non-English names
	// (e.g. "diễn viên" → "actor" instead of the template attribute
	// "starring"). Used by the COMA "+G" baseline configurations.
	Literal string
	// NoCooccur marks attributes that, like prêmios/awards in the paper,
	// never appear on both sides of the same dual-language infobox. Their
	// ground-truth matches are invisible to all co-occurrence methods.
	NoCooccur bool
}

// freq returns the effective presence probability.
func (s *AttrSpec) freq() float64 {
	if s.Freq == 0 {
		return 1
	}
	return s.Freq
}

// TypeSpec describes one entity type: template names per language,
// canonical attributes, title style, and the target cross-language
// attribute overlap per language pair (Table 5).
type TypeSpec struct {
	// Canon is the language-neutral type id ("film", "comics character", …).
	Canon string
	// Template maps a language to the infobox template name used there.
	// Absence means the language edition has no infoboxes of this type.
	Template map[wiki.Language]string
	// Attrs lists the canonical attributes.
	Attrs []AttrSpec
	// PersonTitled types use person names as article titles (identical
	// across languages); otherwise titles are composed from the translated
	// word banks.
	PersonTitled bool
	// Overlap is the target expected attribute overlap for each language
	// pair, keyed by LanguagePair.String() ("pt-en", "vi-en").
	Overlap map[string]float64
}

// HasLanguage reports whether the type exists in a language edition.
func (t *TypeSpec) HasLanguage(l wiki.Language) bool {
	_, ok := t.Template[l]
	return ok
}

// TypeName returns the entity type string an article of this type carries
// in a language (derived from the template name, as wiki.ParsePage does).
func (t *TypeSpec) TypeName(l wiki.Language) string {
	return wiki.TemplateType(t.Template[l])
}

// attr returns the spec for a canonical attribute, or nil.
func (t *TypeSpec) attr(canon string) *AttrSpec {
	for i := range t.Attrs {
		if t.Attrs[i].Canon == canon {
			return &t.Attrs[i]
		}
	}
	return nil
}

// CategoryTypes returns the category → entity-type mapping matching the
// categories the generator emits, for use with
// wiki.Corpus.AssignTypesFromCategories.
func CategoryTypes() wiki.CategoryTypeMap {
	m := wiki.CategoryTypeMap{}
	for _, spec := range TypeSpecs() {
		for lang := range spec.Template {
			if m[lang] == nil {
				m[lang] = map[string]string{}
			}
			typeName := wiki.TemplateType(spec.Template[lang])
			m[lang][typeName] = typeName
		}
	}
	return m
}
