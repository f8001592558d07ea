// Package sim computes the similarity evidence WikiMatch combines
// (Section 3.2): cross-language value similarity (vsim) over
// dictionary-translated value vectors, whose terms read infobox values
// through internal/text's one value reader (atoms and dates, shared with
// the audit), link-structure similarity (lsim)
// over cross-language-resolved link targets, the grouping score g and
// inductive grouping score eg of the ReviseUncertain step (Section 3.4),
// and the alternative correlation measures X1, X2, X3 of Appendix B.
package sim

import (
	"strings"

	"repro/internal/text"
	"repro/internal/wiki"
)

// ValueTerms reads an attribute's raw value text into normalized value
// terms — the components of the paper's value vectors. The value's
// atoms are text.ValueAtoms, so an English date's internal comma
// ("October 4, 1987") does not cut it. A date atom in any edition's
// convention becomes its ISO form and its year; a "<number> <unit>" atom
// becomes the number; any other atom is its normalized text plus its
// digit runs.
func ValueTerms(lang wiki.Language, value string) []string {
	var terms []string
	for _, atom := range text.ValueAtoms(value) {
		if d, ok := text.ParseDate(atom); ok {
			// A date contributes both its full ISO form and its year: the
			// year survives day-level inconsistencies between language
			// editions (the paper's running-time/date noise, §1).
			iso := d.Canonical()
			terms = append(terms, iso, iso[:4])
			continue
		}
		n := text.Normalize(atom)
		// A "<number> <unit>" atom ("160 minutes" / "160 min" /
		// "160 phút") reduces to its language-independent number.
		if toks := strings.Fields(n); len(toks) == 2 && isDigits(toks[0]) && !isDigits(toks[1]) {
			terms = append(terms, toks[0])
			continue
		}
		terms = append(terms, n)
		// Other atoms containing numbers ("US$ 23 milhões") also
		// contribute their digit runs, which survive translation.
		for _, run := range digitRuns(n) {
			if run != n {
				terms = append(terms, run)
			}
		}
	}
	return terms
}

// RawValueTerms reads a value into its plain normalized atoms
// (text.SplitValue), with none of the date re-joining and number
// handling ValueTerms performs. This is the representation generic
// instance matchers (the COMA++ and Ziggurat baselines) work with; the
// canonicalization above is part of WikiMatch's own value pipeline.
func RawValueTerms(value string) []string {
	atoms := text.SplitValue(value)
	for i, a := range atoms {
		atoms[i] = text.Normalize(a)
	}
	return atoms
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// digitRuns returns the maximal digit substrings of s, in order.
func digitRuns(s string) []string {
	var runs []string
	start := -1
	for i := 0; i <= len(s); i++ {
		isD := i < len(s) && s[i] >= '0' && s[i] <= '9'
		if isD && start < 0 {
			start = i
		}
		if !isD && start >= 0 {
			runs = append(runs, s[start:i])
			start = -1
		}
	}
	return runs
}
