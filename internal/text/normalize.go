// Package text provides the language-processing primitives the matching
// pipeline relies on: Unicode normalization with diacritic folding for
// Portuguese and Vietnamese, tokenization, character n-grams, string
// similarity functions (Levenshtein, trigram/Dice), and sparse
// term-frequency vectors with cosine similarity.
//
// Everything here is deliberately simple and deterministic: the paper's
// method does not depend on sophisticated NLP, only on consistent
// normalization so that the same surface string always produces the same
// key.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// foldTable maps accented Latin letters (as used by Portuguese and
// Vietnamese orthography) to their base ASCII letters. Vietnamese uses
// stacked diacritics (e.g. ệ, ở, ữ) which are all covered by their
// precomposed code points below.
var foldTable = map[rune]rune{
	// Latin-1 supplement + Latin Extended-A (covers Portuguese).
	'à': 'a', 'á': 'a', 'â': 'a', 'ã': 'a', 'ä': 'a', 'å': 'a',
	'è': 'e', 'é': 'e', 'ê': 'e', 'ë': 'e',
	'ì': 'i', 'í': 'i', 'î': 'i', 'ï': 'i',
	'ò': 'o', 'ó': 'o', 'ô': 'o', 'õ': 'o', 'ö': 'o',
	'ù': 'u', 'ú': 'u', 'û': 'u', 'ü': 'u',
	'ç': 'c', 'ñ': 'n', 'ý': 'y', 'ÿ': 'y',
	// Vietnamese base letters with horn/breve/stroke.
	'ă': 'a', 'đ': 'd', 'ĩ': 'i', 'ơ': 'o', 'ũ': 'u', 'ư': 'u',
	// Vietnamese tone-marked vowels (precomposed, Latin Extended Additional).
	'ạ': 'a', 'ả': 'a', 'ấ': 'a', 'ầ': 'a', 'ẩ': 'a', 'ẫ': 'a', 'ậ': 'a',
	'ắ': 'a', 'ằ': 'a', 'ẳ': 'a', 'ẵ': 'a', 'ặ': 'a',
	'ẹ': 'e', 'ẻ': 'e', 'ẽ': 'e', 'ế': 'e', 'ề': 'e', 'ể': 'e', 'ễ': 'e', 'ệ': 'e',
	'ỉ': 'i', 'ị': 'i',
	'ọ': 'o', 'ỏ': 'o', 'ố': 'o', 'ồ': 'o', 'ổ': 'o', 'ỗ': 'o', 'ộ': 'o',
	'ớ': 'o', 'ờ': 'o', 'ở': 'o', 'ỡ': 'o', 'ợ': 'o',
	'ụ': 'u', 'ủ': 'u', 'ứ': 'u', 'ừ': 'u', 'ử': 'u', 'ữ': 'u', 'ự': 'u',
	'ỳ': 'y', 'ỵ': 'y', 'ỷ': 'y', 'ỹ': 'y',
}

// Normalize lowercases s, folds diacritics, and collapses interior
// whitespace — the canonical form for attribute names, titles and value
// tokens throughout the pipeline. It is a single pass: ASCII lowercases
// in place, other runes go through unicode.ToLower and foldTable, runs of
// unicode.IsSpace become one space and edge spaces are dropped. Invalid
// UTF-8 becomes U+FFFD, as strings.ToLower does. An input that is
// already normal ASCII is returned as is, without allocating.
func Normalize(s string) string {
	if normalASCII(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	space := false // a whitespace run waits to be written as one space
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if asciiSpace[c] {
				space = b.Len() > 0
				continue
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if space {
				b.WriteByte(' ')
				space = false
			}
			b.WriteByte(c)
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		r = fold(unicode.ToLower(r))
		if unicode.IsSpace(r) {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(r)
	}
	return b.String()
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// normalASCII reports whether s is ASCII and already normal: no upper
// case, no whitespace but single interior spaces.
func normalASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf || 'A' <= c && c <= 'Z':
			return false
		case c == ' ':
			if i == 0 || i == len(s)-1 || s[i-1] == ' ' {
				return false
			}
		case asciiSpace[c]:
			return false
		}
	}
	return true
}

// fold maps a lowercased rune to its base letter through foldTable. A
// rune unicode.ToLower would still change folds to the upper-case base
// letter.
func fold(r rune) rune {
	if f, ok := foldTable[r]; ok {
		return f
	}
	if l := unicode.ToLower(r); l != r {
		if f, ok := foldTable[l]; ok {
			return unicode.ToUpper(f)
		}
	}
	return r
}

// Tokenize splits s into lowercase, diacritic-folded word tokens. A token
// is a maximal run of letters or digits; everything else separates tokens.
func Tokenize(s string) []string {
	s = Normalize(s)
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// NGrams returns the character n-grams of the normalized string, padded
// with '#' at both ends (the padding makes prefix/suffix characters count,
// the convention used by COMA-style trigram matchers). It returns nil when
// n < 1; a string shorter than n after padding yields the padded string as
// its single gram.
func NGrams(s string, n int) []string {
	if n < 1 {
		return nil
	}
	runes := []rune("#" + Normalize(s) + "#")
	if len(runes) <= n {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	return grams
}
