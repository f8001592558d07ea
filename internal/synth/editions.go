// The multi-edition fixture: a deterministic corpus over an arbitrary
// language list — ten or more editions, long-tail codes included —
// shaped like the star topology of real interlanguage links: most
// editions link to the hub, few link to each other, so non-hub pairs
// are reachable only transitively. Generate builds linguistically
// rich en/pt/vi corpora for accuracy experiments; Editions instead
// exercises the data-driven paths this scale opens up: the pivot
// planner with 10+ editions, hub choice, transitive-only recovery and
// the TTL/XML ingestion round trip (internal/ingest writes it out and
// reads it back).
package synth

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/wiki"
)

// EditionsConfig sizes the multi-edition corpus.
type EditionsConfig struct {
	// Languages are the editions to generate, at least two. The default
	// set (see DefaultEditions) is twelve real codes including
	// hyphenated long-tail editions.
	Languages []wiki.Language
	// Hub is the pivot edition every other edition cross-links to; it
	// must be in Languages. Hub articles are always present.
	Hub wiki.Language
	// Types is the number of canonical entity types.
	Types int
	// EntitiesPerType is the number of entities per type.
	EntitiesPerType int
	// AttrsPerType is each type's canonical schema width; PerBox of
	// them instantiate in any one article.
	AttrsPerType int
	// PerBox is how many attributes each article instantiates.
	PerBox int
	// CoveragePct is the percentage chance a non-hub edition carries an
	// entity's article.
	CoveragePct int
	// HubLinkPct is the percentage chance a non-hub article carries a
	// cross-link to the hub's article.
	HubLinkPct int
	// NonHubLinkPct is the percentage chance two non-hub articles of
	// the same entity are cross-linked. 0 makes every non-hub pair
	// transitive-only — the pivot planner's stress case.
	NonHubLinkPct int
	// TemplatePct is the percentage chance an article names its typed
	// infobox template. The remainder carry a bare "Infobox" and no
	// type, leaving them to ingestion's property-profile inference.
	TemplatePct int
	// Seed drives the deterministic generator stream.
	Seed uint64
}

// DefaultEditions returns the 12-edition configuration the acceptance
// tests and CI fixtures derive from: a star of editions around an
// English hub with zero non-hub links, so all 55 non-hub pairs are
// transitive-only.
func DefaultEditions() EditionsConfig {
	return EditionsConfig{
		Languages: []wiki.Language{
			"en", "de", "fr", "pt", "vi", "ja", "pl", "sv",
			"zh-min-nan", "be-tarask", "nds-nl", "ceb",
		},
		Hub:             "en",
		Types:           3,
		EntitiesPerType: 80,
		AttrsPerType:    18,
		PerBox:          10,
		CoveragePct:     60,
		HubLinkPct:      95,
		NonHubLinkPct:   0,
		TemplatePct:     100,
		Seed:            11,
	}
}

// EditionsTruth is the generator's ground truth: which canonical type
// and attribute every localized surface form renders.
type EditionsTruth struct {
	// TypeName maps language → localized type name → canonical type id.
	TypeName map[wiki.Language]map[string]string
	// AttrCanon maps language → localized type name → localized
	// attribute name → canonical attribute id.
	AttrCanon map[wiki.Language]map[string]map[string]string
}

// editionsAnchors is how many attributes per type carry identical
// values in every edition (the certain matches); the rest agree only
// partially, like real dumps.
const editionsAnchors = 4

// editionsValues is each attribute's value-pool size.
const editionsValues = 120

// editionsRefPool is the shared pool of reference entities whose
// localized, fully cross-linked stub articles feed the
// title-translation dictionary and lsim.
const editionsRefPool = 90

// word derives a deterministic lowercase pseudoword from the concept
// key: the same key always renders the same word, independent of
// generation order, and distinct languages render unrelated words.
// Digit-free, like every synth value token, so ValueTerms never
// extracts a spurious shared number from a name.
func word(lang wiki.Language, parts ...string) string {
	h := uint64(1469598103934665603)
	h = h*1099511628211 ^ uint64(len(lang))
	for _, c := range []byte(lang) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for _, p := range parts {
		for _, c := range []byte(p) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h = (h ^ 0x7c) * 1099511628211
	}
	const consonants = "bdfgklmnprstvz"
	const vowels = "aeiou"
	var b strings.Builder
	syllables := 2 + int(h%3)
	for i := 0; i < syllables; i++ {
		b.WriteByte(consonants[h%uint64(len(consonants))])
		h /= uint64(len(consonants))
		b.WriteByte(vowels[h%uint64(len(vowels))])
		h /= uint64(len(vowels))
		if h&1 == 1 {
			h >>= 1
			b.WriteByte(consonants[h%uint64(len(consonants))])
			h /= uint64(len(consonants))
		}
		if h < 1<<16 {
			h = h*6364136223846793005 + 1442695040888963407
		}
	}
	return b.String()
}

// capitalized returns the word with its first letter uppercased — a
// title surface form.
func capitalized(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// Editions builds the corpus and its ground truth. Everything is a
// pure function of the config: article order, titles, values and links
// are identical across runs and platforms.
func Editions(cfg EditionsConfig) (*wiki.Corpus, *EditionsTruth, error) {
	if len(cfg.Languages) < 2 {
		return nil, nil, fmt.Errorf("synth: editions need at least 2 languages, have %d", len(cfg.Languages))
	}
	langs := append([]wiki.Language(nil), cfg.Languages...)
	sort.Slice(langs, func(i, j int) bool { return langs[i] < langs[j] })
	seen := make(map[wiki.Language]bool, len(langs))
	hubOK := false
	for _, l := range langs {
		if !l.Valid() {
			return nil, nil, fmt.Errorf("synth: invalid language %q", l)
		}
		if seen[l] {
			return nil, nil, fmt.Errorf("synth: duplicate language %q", l)
		}
		seen[l] = true
		if l == cfg.Hub {
			hubOK = true
		}
	}
	if !hubOK {
		return nil, nil, fmt.Errorf("synth: hub %q not among languages", cfg.Hub)
	}
	if cfg.Types <= 0 || cfg.EntitiesPerType <= 0 || cfg.AttrsPerType <= 0 || cfg.PerBox <= 0 {
		return nil, nil, fmt.Errorf("synth: editions need positive Types, EntitiesPerType, AttrsPerType and PerBox")
	}
	if cfg.PerBox > cfg.AttrsPerType {
		cfg.PerBox = cfg.AttrsPerType
	}

	truth := &EditionsTruth{
		TypeName:  make(map[wiki.Language]map[string]string),
		AttrCanon: make(map[wiki.Language]map[string]map[string]string),
	}
	for _, l := range langs {
		truth.TypeName[l] = make(map[string]string)
		truth.AttrCanon[l] = make(map[string]map[string]string)
	}
	// Localized surfaces. Attribute names get a canonical alpha suffix
	// purely for uniqueness within the type (the matcher never compares
	// name strings).
	typeName := func(l wiki.Language, t int) string { return word(l, "type", alpha(t)) }
	attrName := func(l wiki.Language, t, k int) string { return word(l, "attr", alpha(t), alpha(k)) + alpha(k) }
	entTitle := func(l wiki.Language, t, i int) string {
		return fmt.Sprintf("%s %d", capitalized(word(l, "ent", alpha(t))), i)
	}
	refTitle := func(l wiki.Language, r int) string {
		return fmt.Sprintf("%s %d", capitalized(word(l, "ref")), r)
	}
	for _, l := range langs {
		for t := 0; t < cfg.Types; t++ {
			tn := typeName(l, t)
			truth.TypeName[l][tn] = "type-" + alpha(t)
			am := make(map[string]string, cfg.AttrsPerType)
			for k := 0; k < cfg.AttrsPerType; k++ {
				am[attrName(l, t, k)] = "attr-" + alpha(k)
			}
			truth.AttrCanon[l][tn] = am
		}
	}

	c := wiki.NewCorpus()
	// Reference stubs: every edition carries the full pool, star-linked
	// through the hub, so title translation has dense material even when
	// entity articles are sparse.
	for _, l := range langs {
		for r := 0; r < editionsRefPool; r++ {
			a := &wiki.Article{Language: l, Title: refTitle(l, r)}
			if l == cfg.Hub {
				for _, m := range langs {
					if m != cfg.Hub {
						a.SetCrossLink(m, refTitle(m, r))
					}
				}
			} else {
				a.SetCrossLink(cfg.Hub, refTitle(cfg.Hub, r))
			}
			if err := c.Add(a); err != nil {
				return nil, nil, err
			}
		}
	}

	perm := make([]int, cfg.AttrsPerType)
	for t := 0; t < cfg.Types; t++ {
		for i := 0; i < cfg.EntitiesPerType; i++ {
			// One rng stream per entity: membership, subset and values
			// never depend on how other entities drew.
			rng := &dsRand{s: cfg.Seed ^ uint64(t)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9}
			rng.next()
			for k := range perm {
				perm[k] = k
			}
			for k := 0; k < cfg.PerBox; k++ {
				j := k + rng.intn(cfg.AttrsPerType-k)
				perm[k], perm[j] = perm[j], perm[k]
			}
			subset := append([]int(nil), perm[:cfg.PerBox]...)
			sort.Ints(subset)
			// Shared base values, drawn once per entity.
			baseVal := make([]int, cfg.AttrsPerType)
			baseRef := make([]int, cfg.AttrsPerType)
			for _, k := range subset {
				baseVal[k] = rng.intn(editionsValues)
				baseRef[k] = rng.intn(editionsRefPool)
			}
			present := make(map[wiki.Language]bool, len(langs))
			for _, l := range langs {
				present[l] = l == cfg.Hub || rng.intn(100) < cfg.CoveragePct
			}
			for _, l := range langs {
				if !present[l] {
					continue
				}
				typed := rng.intn(100) < cfg.TemplatePct
				tn := typeName(l, t)
				ib := &wiki.Infobox{Template: "Infobox"}
				if typed {
					ib.Template = "Infobox " + tn
				}
				for _, k := range subset {
					v, ref := baseVal[k], baseRef[k]
					// Non-anchor attributes disagree in roughly a third
					// of editions, keeping gold similarity mid-range.
					if k >= editionsAnchors && rng.intn(3) == 0 {
						v = rng.intn(editionsValues)
						ref = rng.intn(editionsRefPool)
					}
					text := "val" + alpha(k) + "x" + alpha(v)
					var links []wiki.Link
					if k%3 == 0 {
						target := refTitle(l, ref)
						text += ", " + target
						links = []wiki.Link{{Target: target, Anchor: target}}
					}
					ib.Set(attrName(l, t, k), text, links...)
				}
				a := &wiki.Article{Language: l, Title: entTitle(l, t, i), Infobox: ib}
				if typed {
					a.Type = tn
				}
				if l != cfg.Hub {
					if present[cfg.Hub] && rng.intn(100) < cfg.HubLinkPct {
						a.SetCrossLink(cfg.Hub, entTitle(cfg.Hub, t, i))
					}
					for _, m := range langs {
						if m == cfg.Hub || m == l || m < l || !present[m] {
							continue
						}
						if cfg.NonHubLinkPct > 0 && rng.intn(100) < cfg.NonHubLinkPct {
							a.SetCrossLink(m, entTitle(m, t, i))
						}
					}
				}
				if err := c.Add(a); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return c, truth, nil
}
