// Package dict builds translation dictionaries from Wikipedia's
// cross-language links, following the construction of Oh et al. that the
// paper adopts in Section 3.2: for every article A in language L with a
// cross-language link to article A' in L', the dictionary maps A's title
// to A's title in L'.
//
// The package also provides LabelTranslator, a lookup-table translator
// with configurable error injection that stands in for the external
// machine-translation system (Google Translator) used by the COMA++
// baseline's "+G" configurations. The substitution keeps what those
// configurations are measured on: label translations that are sometimes
// literal rather than template-correct, at a controlled, seeded rate
// (see LabelTranslator).
package dict

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/text"
	"repro/internal/wiki"
)

// Dictionary translates article titles from one language to another. Keys
// are normalized (lowercased, diacritics folded); translations preserve
// the target title's original form. A Dictionary is immutable once built,
// so any number of goroutines may Translate concurrently.
type Dictionary struct {
	From, To wiki.Language
	entries  map[string]string
}

// New returns an empty dictionary for the given direction.
func New(from, to wiki.Language) *Dictionary {
	return &Dictionary{From: from, To: to, entries: make(map[string]string)}
}

// Build constructs the title-translation dictionary from the corpus's
// cross-language links, in both recorded directions (a link stored on
// either article contributes the same entry).
func Build(c *wiki.Corpus, from, to wiki.Language) *Dictionary {
	d, _ := BuildCtx(context.Background(), c, from, to)
	return d
}

// buildCheckEvery is how many articles BuildCtx scans between context
// checks.
const buildCheckEvery = 1024

// BuildCtx is Build with cancellation: it checks ctx between article
// batches and returns ctx.Err() (with a nil dictionary) once the context
// is done.
func BuildCtx(ctx context.Context, c *wiki.Corpus, from, to wiki.Language) (*Dictionary, error) {
	d := New(from, to)
	n := 0
	for _, a := range c.Articles(from) {
		if n++; n%buildCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if title, ok := a.CrossLink(to); ok {
			d.Add(a.Title, title)
		}
	}
	for _, b := range c.Articles(to) {
		if n++; n%buildCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if title, ok := b.CrossLink(from); ok {
			d.Add(title, b.Title)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// Add records a translation from a title in the source language to a
// title in the target language. Empty strings are ignored.
func (d *Dictionary) Add(from, to string) {
	key := text.Normalize(from)
	if key == "" || to == "" {
		return
	}
	d.entries[key] = to
}

// Translate returns the target-language title for a source-language
// phrase, looked up on the normalized form.
func (d *Dictionary) Translate(phrase string) (string, bool) {
	t, ok := d.entries[text.Normalize(phrase)]
	return t, ok
}

// TranslateOrKeep translates when possible and otherwise returns the
// input unchanged — the paper's "whenever possible, the values are
// translated" rule for building translated value vectors.
func (d *Dictionary) TranslateOrKeep(phrase string) string {
	if t, ok := d.Translate(phrase); ok {
		return t
	}
	return phrase
}

// Len returns the number of entries.
func (d *Dictionary) Len() int { return len(d.entries) }

// Equal reports whether two dictionaries have the same direction and
// the same entries. Nil dictionaries (the NoDictionary ablation) are
// equal only to nil. The session's delta path uses this to decide
// whether a corpus edit actually changed a pair's dictionary.
func (d *Dictionary) Equal(o *Dictionary) bool {
	if d == nil || o == nil {
		return d == nil && o == nil
	}
	if d.From != o.From || d.To != o.To || len(d.entries) != len(o.entries) {
		return false
	}
	for k, v := range d.entries {
		if ov, ok := o.entries[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Entries returns the dictionary contents sorted by key, for inspection.
func (d *Dictionary) Entries() [][2]string {
	keys := make([]string, 0, len(d.entries))
	for k := range d.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][2]string, len(keys))
	for i, k := range keys {
		out[i] = [2]string{k, d.entries[k]}
	}
	return out
}

// FromEntries reconstructs a dictionary from Entries output: keys are
// stored verbatim (they are already normalized), so a dictionary rebuilt
// from its own Entries is identical to the original. This is the
// deserialization path of the snapshot store.
func FromEntries(from, to wiki.Language, entries [][2]string) *Dictionary {
	d := New(from, to)
	for _, e := range entries {
		d.entries[e[0]] = e[1]
	}
	return d
}

// LabelTranslator is a dictionary-backed stand-in for an external machine
// translation system operating on attribute labels. A non-zero ErrorRate
// makes the translator deterministically (per seed) emit a wrong-but-
// plausible translation for that fraction of lookups — reproducing the
// paper's observation that label MT returns literal renderings (e.g.
// "diễn viên" → "actor" rather than the template attribute "starring").
type LabelTranslator struct {
	entries   map[string]string
	wrong     map[string]string
	ErrorRate float64
	rng       *rand.Rand
}

// NewLabelTranslator creates a translator with the given error rate and
// deterministic seed.
func NewLabelTranslator(errorRate float64, seed int64) *LabelTranslator {
	return &LabelTranslator{
		entries:   make(map[string]string),
		wrong:     make(map[string]string),
		ErrorRate: errorRate,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Add records the correct translation for a label and, optionally, the
// literal (incorrect) rendering an MT system would produce for it.
func (t *LabelTranslator) Add(label, correct string, literal ...string) {
	key := text.Normalize(label)
	t.entries[key] = correct
	if len(literal) > 0 && literal[0] != "" {
		t.wrong[key] = literal[0]
	}
}

// Translate renders a label into the target language. With probability
// ErrorRate (and always when only a literal rendering is known), the
// literal form is returned instead of the template-correct one.
func (t *LabelTranslator) Translate(label string) (string, bool) {
	key := text.Normalize(label)
	correct, okC := t.entries[key]
	literal, okW := t.wrong[key]
	switch {
	case okC && okW:
		if t.rng.Float64() < t.ErrorRate {
			return literal, true
		}
		return correct, true
	case okC:
		return correct, true
	case okW:
		return literal, true
	}
	return "", false
}

// Len returns the number of labels with any translation.
func (t *LabelTranslator) Len() int {
	n := len(t.entries)
	for k := range t.wrong {
		if _, dup := t.entries[k]; !dup {
			n++
		}
	}
	return n
}
