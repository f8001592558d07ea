// Package wiki defines the Wikipedia data model used throughout the
// repository: articles, infoboxes, attribute–value pairs, hyperlinks,
// cross-language links, and the Corpus container with its indices.
//
// The model follows Section 2 of Nguyen et al., "Multilingual Schema
// Matching for Wikipedia Infoboxes" (PVLDB 5(2), 2011): an article A in
// language L describes an entity E, carries an infobox I (a structured
// record of attribute–value pairs), and may link to articles describing
// the same entity in other languages through cross-language links.
package wiki

import (
	"fmt"
	"sort"
	"strings"
)

// Language identifies a Wikipedia language edition by its subdomain code
// (e.g. "en" for English, "pt" for Portuguese, "vi" for Vietnamese).
type Language string

// The three language editions used in the paper's evaluation.
const (
	English    Language = "en"
	Portuguese Language = "pt"
	Vietnamese Language = "vi"
)

// String returns the language code.
func (l Language) String() string { return string(l) }

// Valid reports whether l is a well-formed language edition code: one
// or more segments of lowercase ASCII letters and digits separated by
// single hyphens, starting with a letter. This is the form used by
// interlanguage link prefixes and Wikipedia subdomains, and it covers
// the long-tail editions ("zh-min-nan", "be-tarask", "nds-nl",
// "map-bms") as well as the plain two-letter codes. Uppercase, empty
// codes, and leading/trailing/doubled hyphens are rejected.
func (l Language) Valid() bool {
	if len(l) == 0 || l[0] < 'a' || l[0] > 'z' {
		return false
	}
	prevHyphen := false
	for i := 0; i < len(l); i++ {
		c := l[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			prevHyphen = false
		case c == '-':
			if prevHyphen {
				return false
			}
			prevHyphen = true
		default:
			return false
		}
	}
	return !prevHyphen
}

// LanguagePair names an ordered pair of language editions whose infobox
// schemas are being matched, e.g. Portuguese–English.
type LanguagePair struct {
	A, B Language
}

// String renders the pair as "pt-en". When either code itself contains
// a hyphen ("zh-min-nan"), the sides are joined with a colon instead
// ("zh-min-nan:en") so the rendering stays unambiguous and parseable:
// protocol.ParsePair(p.String()) round-trips for every valid pair.
func (p LanguagePair) String() string {
	if strings.ContainsRune(string(p.A), '-') || strings.ContainsRune(string(p.B), '-') {
		return fmt.Sprintf("%s:%s", p.A, p.B)
	}
	return fmt.Sprintf("%s-%s", p.A, p.B)
}

// PtEn and VnEn are the two language pairs evaluated in the paper.
var (
	PtEn = LanguagePair{A: Portuguese, B: English}
	VnEn = LanguagePair{A: Vietnamese, B: English}
)

// OrientPair orders two languages into the canonical pair used by the
// all-pairs machinery: the hub (when one of them is the hub) goes on the
// B side — matching the paper's other-to-English orientation (Pt–En,
// Vi–En) — and otherwise the languages are ordered lexicographically.
// Canonical orientation is what lets a batch and ad-hoc pairwise calls
// share one artifact cache: both always ask for the same LanguagePair.
func OrientPair(a, b, hub Language) LanguagePair {
	switch {
	case b == hub:
		return LanguagePair{A: a, B: b}
	case a == hub:
		return LanguagePair{A: b, B: a}
	case a <= b:
		return LanguagePair{A: a, B: b}
	default:
		return LanguagePair{A: b, B: a}
	}
}

// AllPairs enumerates every unordered pair of the given languages as
// canonically oriented LanguagePairs (see OrientPair), sorted. Duplicate
// languages are ignored.
func AllPairs(langs []Language, hub Language) []LanguagePair {
	uniq := dedupLanguages(langs)
	out := make([]LanguagePair, 0, len(uniq)*(len(uniq)-1)/2)
	for i, a := range uniq {
		for _, b := range uniq[i+1:] {
			out = append(out, OrientPair(a, b, hub))
		}
	}
	sortPairs(out)
	return out
}

// HubPairs enumerates the star of pairs connecting every language to the
// hub — the pivot-mode pair plan — canonically oriented (hub on the B
// side), sorted. The hub itself, and duplicates, are skipped.
func HubPairs(langs []Language, hub Language) []LanguagePair {
	uniq := dedupLanguages(langs)
	out := make([]LanguagePair, 0, len(uniq))
	for _, l := range uniq {
		if l == hub {
			continue
		}
		out = append(out, LanguagePair{A: l, B: hub})
	}
	sortPairs(out)
	return out
}

func dedupLanguages(langs []Language) []Language {
	seen := make(map[Language]bool, len(langs))
	out := make([]Language, 0, len(langs))
	for _, l := range langs {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortPairs(pairs []LanguagePair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}
