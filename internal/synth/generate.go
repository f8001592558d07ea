package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/wiki"
)

// Config controls a generation run. All randomness is derived from Seed,
// so equal configs produce identical corpora.
type Config struct {
	Seed int64
	// PtEnPairs / VnEnPairs give the number of cross-linked infobox pairs
	// per canonical type for each language pair.
	PtEnPairs map[string]int
	VnEnPairs map[string]int
	// EnExtraFrac adds this fraction of extra English-only entities per
	// type (the English edition's higher coverage, which drives the case
	// study's cumulative-gain results).
	EnExtraFrac float64
	// LinkProb is the probability an entity-valued atom is hyperlinked.
	LinkProb float64
	// AnchorAliasProb is the probability a link uses an alias anchor
	// ("USA" instead of "United States").
	AnchorAliasProb float64
	// DropAtomProb drops one atom from a multi-atom value per language.
	DropAtomProb float64
	// PerturbProb perturbs a literal per language (running time 160 vs
	// 165, the paper's §1 inconsistency).
	PerturbProb float64
	// MisfileProb appends a value atom from another attribute (Ryuichi
	// Sakamoto under Elenco original, §1).
	MisfileProb float64
	// LinkDateProb links the day-month part of a date value.
	LinkDateProb float64
	// StubCrossLinkProb is the probability a referenced stub entity
	// carries interlanguage links between a given pair of editions. Real
	// Wikipedia cross-language links are incomplete (the paper cites Oh
	// et al.'s link-discovery work precisely because of this), which
	// bounds both dictionary coverage and lsim resolution.
	StubCrossLinkProb float64

	// Inconsistency-injection knobs (all zero outside audit-eval
	// corpora; see AuditEvalConfig). Each is a per-(entity, attribute)
	// probability that one randomly chosen edition renders a known-wrong
	// value, recorded in the GroundTruth.Injected ledger so a detector
	// can be scored against it. At most one injection applies per
	// attribute, tried in the order below.

	// InjectNumberProb perturbs a numeric literal (number, year,
	// duration) in the victim edition.
	InjectNumberProb float64
	// InjectDateProb shifts the day of a date value in the victim
	// edition.
	InjectDateProb float64
	// InjectUnitProb rewrites a unit-bearing value (duration, money)
	// keeping the written magnitude but swapping the unit or scale word
	// (minutes → hours, milhões → bilhões).
	InjectUnitProb float64
	// InjectDropProb drops the whole attribute from the victim edition
	// while the other edition keeps it.
	InjectDropProb float64
}

// DefaultConfig is the full-scale experiment corpus: the per-type pair
// counts keep the relative proportions of the paper's dataset (8,898
// Pt-En and 659 Vn-En infoboxes) at roughly one-quarter scale so the whole
// benchmark suite runs in seconds.
func DefaultConfig() Config {
	return Config{
		Seed: 20111030, // the paper's arXiv date
		PtEnPairs: map[string]int{
			"film": 260, "show": 100, "actor": 140, "artist": 110,
			"channel": 60, "company": 90, "comics character": 70, "album": 130,
			"adult actor": 45, "book": 70, "episode": 55, "writer": 65,
			"comics": 35, "fictional character": 45,
		},
		VnEnPairs: map[string]int{
			"film": 80, "show": 35, "actor": 40, "artist": 25,
		},
		EnExtraFrac:       1.2,
		LinkProb:          0.9,
		AnchorAliasProb:   0.25,
		DropAtomProb:      0.05,
		PerturbProb:       0.06,
		MisfileProb:       0.02,
		LinkDateProb:      0.45,
		StubCrossLinkProb: 0.8,
	}
}

// SmallConfig is a fast corpus for unit tests: same structure, roughly a
// quarter of the default sizes.
func SmallConfig() Config {
	cfg := DefaultConfig()
	small := func(m map[string]int) map[string]int {
		out := make(map[string]int, len(m))
		for k, v := range m {
			n := v / 4
			if n < 8 {
				n = 8
			}
			out[k] = n
		}
		return out
	}
	cfg.PtEnPairs = small(cfg.PtEnPairs)
	cfg.VnEnPairs = small(cfg.VnEnPairs)
	return cfg
}

// ScaleConfig returns the corpus configuration a command's -scale flag
// names: SmallConfig for "small", DefaultConfig for "full". Any other
// name is an error, so a typo cannot silently pick a corpus.
func ScaleConfig(scale string) (Config, error) {
	switch scale {
	case "small":
		return SmallConfig(), nil
	case "full":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown corpus scale %q (want small or full)", scale)
}

// AuditEvalConfig is the consistency-audit evaluation corpus: the
// small-scale corpus with the organic value noise silenced (so injected
// inconsistencies are the only cross-edition value disagreements of
// their kinds) and every injection knob turned on. The GroundTruth
// returned alongside carries the Injected ledger the audit eval scores
// against.
func AuditEvalConfig() Config {
	cfg := SmallConfig()
	cfg.DropAtomProb = 0
	cfg.PerturbProb = 0
	cfg.MisfileProb = 0
	cfg.InjectNumberProb = 0.25
	cfg.InjectDateProb = 0.25
	cfg.InjectUnitProb = 0.25
	cfg.InjectDropProb = 0.15
	return cfg
}

// Generate builds the synthetic multilingual corpus and its ground truth.
func Generate(cfg Config) (*wiki.Corpus, *GroundTruth, error) {
	g := &generator{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		specs:      TypeSpecs(),
		usedTitles: map[wiki.Language]map[string]bool{en: {}, pt: {}, vn: {}},
		usedRefs:   make(map[string]*RefEntity),
	}
	g.pools = newPools(g.rng)
	g.registerRefTitles()

	truth := &GroundTruth{
		Types:           make(map[string]*TypeTruth),
		TypeNameToCanon: map[wiki.Language]map[string]string{en: {}, pt: {}, vn: {}},
		Entities:        make(map[string][]*Entity),
	}
	for i := range g.specs {
		spec := &g.specs[i]
		truth.Types[spec.Canon] = newTypeTruth(spec)
		for lang := range spec.Template {
			truth.TypeNameToCanon[lang][spec.TypeName(lang)] = spec.Canon
		}
	}

	// Phase 1: entity shells (ids, languages, titles) for every type.
	for i := range g.specs {
		spec := &g.specs[i]
		ents, err := g.makeShells(spec)
		if err != nil {
			return nil, nil, err
		}
		g.entities = append(g.entities, ents...)
		truth.Entities[spec.Canon] = ents
	}

	// Phase 2: canonical values (works can now reference any shell).
	for _, e := range g.entities {
		g.sampleValues(e, truth)
	}
	g.seedQueryTargets(truth)

	// Phase 3: render articles.
	corpus := wiki.NewCorpus()
	for _, e := range g.entities {
		if err := g.emitEntity(corpus, e, truth); err != nil {
			return nil, nil, err
		}
	}

	// Phase 4: stub articles for every referenced entity.
	if err := g.emitStubs(corpus); err != nil {
		return nil, nil, err
	}
	return corpus, truth, nil
}

// generator carries the state of one run.
type generator struct {
	cfg        Config
	rng        *rand.Rand
	specs      []TypeSpec
	pools      *pools
	entities   []*Entity
	usedTitles map[wiki.Language]map[string]bool
	usedRefs   map[string]*RefEntity
}

// registerRefTitles reserves the static reference-bank titles so entity
// titles never collide with them.
func (g *generator) registerRefTitles() {
	banks := [][]*RefEntity{g.pools.persons, g.pools.placesP, g.pools.orgs, g.pools.genresP, g.pools.langsP}
	for _, bank := range g.pools.terms {
		banks = append(banks, bank)
	}
	for _, bank := range banks {
		for _, r := range bank {
			for lang, t := range r.Titles {
				g.usedTitles[lang][t] = true
			}
		}
	}
}

// makeShells creates the entities of one type: Pt-En pairs, Vn-En pairs
// (when the type exists in Vietnamese), and English-only extras.
func (g *generator) makeShells(spec *TypeSpec) ([]*Entity, error) {
	var ents []*Entity
	mk := func(langs []wiki.Language, n int, tag string) error {
		for i := 0; i < n; i++ {
			e := &Entity{
				ID:     fmt.Sprintf("%s-%s-%04d", strings.ReplaceAll(spec.Canon, " ", "_"), tag, i),
				Type:   spec.Canon,
				Titles: make(map[wiki.Language]string),
				Langs:  make(map[wiki.Language]bool),
				Values: make(map[string][]Atom),
			}
			for _, l := range langs {
				e.Langs[l] = true
			}
			if err := g.assignTitles(spec, e); err != nil {
				return err
			}
			ents = append(ents, e)
		}
		return nil
	}
	if spec.HasLanguage(pt) {
		if err := mk([]wiki.Language{pt, en}, g.cfg.PtEnPairs[spec.Canon], "pt"); err != nil {
			return nil, err
		}
	}
	if spec.HasLanguage(vn) {
		if err := mk([]wiki.Language{vn, en}, g.cfg.VnEnPairs[spec.Canon], "vn"); err != nil {
			return nil, err
		}
	}
	extras := int(float64(g.cfg.PtEnPairs[spec.Canon]+g.cfg.VnEnPairs[spec.Canon]) * g.cfg.EnExtraFrac)
	if err := mk([]wiki.Language{en}, extras, "en"); err != nil {
		return nil, err
	}
	return ents, nil
}

// assignTitles gives an entity a unique title in every language it (or a
// reference to it) may need; the uniqueness ordinal is shared across
// languages so cross-language links stay consistent.
func (g *generator) assignTitles(spec *TypeSpec, e *Entity) error {
	var base map[wiki.Language]string
	if spec.PersonTitled {
		name := pick(g.rng, firstNames) + " " + pick(g.rng, lastNames)
		base = map[wiki.Language]string{en: name, pt: name, vn: name}
	} else {
		adj := pick(g.rng, titleAdjectives)
		noun := pick(g.rng, titleNouns)
		base = map[wiki.Language]string{
			en: "The " + adj.EN + " " + noun.EN,
			pt: "O " + noun.PT + " " + adj.PT,
			vn: noun.VN + " " + adj.VN,
		}
	}
	for ord := 1; ; ord++ {
		ok := true
		for lang, t := range base {
			if g.usedTitles[lang][withOrdinal(t, ord)] {
				ok = false
				break
			}
		}
		if ok {
			for lang, t := range base {
				title := withOrdinal(t, ord)
				e.Titles[lang] = title
				g.usedTitles[lang][title] = true
			}
			return nil
		}
		if ord > 10000 {
			return fmt.Errorf("synth: cannot find unique title for %s", e.ID)
		}
	}
}

func withOrdinal(title string, ord int) string {
	if ord == 1 {
		return title
	}
	return fmt.Sprintf("%s (%d)", title, ord)
}

// sampleValues draws the canonical value atoms for every attribute of an
// entity.
func (g *generator) sampleValues(e *Entity, truth *GroundTruth) {
	spec := g.specFor(e.Type)
	for i := range spec.Attrs {
		attr := &spec.Attrs[i]
		n := attr.MinAtoms
		if attr.MaxAtoms > attr.MinAtoms {
			n += g.rng.Intn(attr.MaxAtoms - attr.MinAtoms + 1)
		}
		e.Values[attr.Canon] = g.sampleAtoms(e, attr, n, truth)
	}
}

func (g *generator) specFor(canon string) *TypeSpec {
	for i := range g.specs {
		if g.specs[i].Canon == canon {
			return &g.specs[i]
		}
	}
	panic("synth: unknown type " + canon)
}

// sampleAtoms draws n atoms for an attribute.
func (g *generator) sampleAtoms(e *Entity, attr *AttrSpec, n int, truth *GroundTruth) []Atom {
	atoms := make([]Atom, 0, n)
	seen := make(map[string]bool)
	for len(atoms) < n {
		a, key := g.sampleAtom(e, attr, truth)
		if key != "" && seen[key] {
			if len(seen) >= n*3 {
				break // pool exhausted
			}
			continue
		}
		seen[key] = true
		atoms = append(atoms, a)
	}
	return atoms
}

// sampleAtom draws one atom; key identifies it for de-duplication.
func (g *generator) sampleAtom(e *Entity, attr *AttrSpec, truth *GroundTruth) (Atom, string) {
	switch attr.Kind {
	case KindSelf:
		return Atom{Kind: KindSelf}, "self"
	case KindPerson:
		r := pick(g.rng, g.pools.persons)
		return Atom{Kind: attr.Kind, Ref: r}, r.ID
	case KindPlace:
		r := pick(g.rng, g.pools.placesP)
		return Atom{Kind: attr.Kind, Ref: r}, r.ID
	case KindOrg:
		r := pick(g.rng, g.pools.orgs)
		return Atom{Kind: attr.Kind, Ref: r}, r.ID
	case KindGenre:
		r := pick(g.rng, g.pools.genresP)
		return Atom{Kind: attr.Kind, Ref: r}, r.ID
	case KindLangName:
		r := pick(g.rng, g.pools.langsP)
		return Atom{Kind: attr.Kind, Ref: r}, r.ID
	case KindWork:
		pool := truth.Entities[attr.Vocab]
		if len(pool) == 0 {
			return Atom{Kind: KindSpan, Lit: "unknown"}, "unknown"
		}
		// Prefer works that share a language with the referencing entity,
		// so links resolve to real articles.
		var shared []*Entity
		for _, w := range pool {
			for l := range e.Langs {
				if w.Langs[l] {
					shared = append(shared, w)
					break
				}
			}
		}
		if len(shared) == 0 {
			shared = pool
		}
		w := pick(g.rng, shared)
		return Atom{Kind: KindWork, Work: w}, w.ID
	case KindDate:
		y, m, d := 1930+g.rng.Intn(81), 1+g.rng.Intn(12), 1+g.rng.Intn(28)
		lit := fmt.Sprintf("%04d-%02d-%02d", y, m, d)
		return Atom{Kind: KindDate, Lit: lit}, lit
	case KindYear:
		lit := fmt.Sprintf("%d", 1930+g.rng.Intn(81))
		return Atom{Kind: KindYear, Lit: lit}, lit
	case KindDuration:
		lit := fmt.Sprintf("%d", 60+g.rng.Intn(140))
		return Atom{Kind: KindDuration, Lit: lit}, lit
	case KindMoney:
		var dollars int64
		if attr.Canon == "revenue" && g.rng.Float64() < 0.2 {
			dollars = int64(1+g.rng.Intn(40)) * 1_000_000_000
		} else {
			dollars = int64(1+g.rng.Intn(300)) * 1_000_000
		}
		lit := fmt.Sprintf("%d", dollars)
		return Atom{Kind: KindMoney, Lit: lit}, lit
	case KindNumber:
		lit := fmt.Sprintf("%d", g.numberFor(attr.Canon))
		return Atom{Kind: KindNumber, Lit: lit}, lit
	case KindURL:
		lit := "http://www." + slug(e.Titles[en]) + ".com"
		return Atom{Kind: KindURL, Lit: lit}, lit
	case KindTerm:
		if refs := g.pools.terms[attr.Vocab]; len(refs) > 0 {
			r := pick(g.rng, refs)
			return Atom{Kind: KindTerm, Ref: r}, r.ID
		}
		vocab := vocabs[attr.Vocab]
		if len(vocab) == 0 {
			return Atom{Kind: KindSpan, Lit: attr.Vocab}, attr.Vocab
		}
		t := pick(g.rng, vocab)
		return Atom{Kind: KindTerm, Term: t}, t.EN + t.PT + t.VN
	case KindSpan:
		if attr.Canon == "isbn" {
			lit := fmt.Sprintf("978-%d-%03d-%05d-%d", g.rng.Intn(10), g.rng.Intn(1000), g.rng.Intn(100000), g.rng.Intn(10))
			return Atom{Kind: KindSpan, Lit: lit}, lit
		}
		start := 1940 + g.rng.Intn(60)
		span := fmt.Sprintf("%d–%d", start, start+3+g.rng.Intn(30))
		return Atom{Kind: KindSpan, Lit: span}, span
	}
	return Atom{Kind: KindSpan, Lit: "?"}, "?"
}

// numberFor gives a plausible range per numeric attribute.
func (g *generator) numberFor(canon string) int {
	switch canon {
	case "children":
		return 1 + g.rng.Intn(5)
	case "seasons", "season":
		return 1 + g.rng.Intn(12)
	case "episodes":
		return 6 + g.rng.Intn(200)
	case "episode no":
		return 1 + g.rng.Intn(24)
	case "pages":
		return 80 + g.rng.Intn(850)
	case "height":
		return 150 + g.rng.Intn(50)
	case "employees":
		return 50 + g.rng.Intn(200000)
	case "issues":
		return 1 + g.rng.Intn(300)
	case "films":
		return 10 + g.rng.Intn(400)
	}
	return 1 + g.rng.Intn(100)
}

func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "entity"
	}
	return b.String()
}

// refByTitle finds a reference entity in a bank by English title.
func refByTitle(bank []*RefEntity, enTitle string) *RefEntity {
	for _, r := range bank {
		if r.Titles[en] == enTitle {
			return r
		}
	}
	panic("synth: unknown reference " + enTitle)
}

// seedQueryTargets deterministically plants the entities the case-study
// queries (Table 4) look for, spread across every language pool, and
// records the forced attributes so presence sampling keeps them.
func (g *generator) seedQueryTargets(truth *GroundTruth) {
	coppola := g.pools.special["Francis Ford Coppola"]
	kripke := g.pools.special["Eric Kripke"]
	france := refByTitle(g.pools.placesP, "France")
	england := refByTitle(g.pools.placesP, "England")
	brazil := refByTitle(g.pools.placesP, "Brazil")
	jazz := refByTitle(g.pools.genresP, "Jazz")
	progRock := refByTitle(g.pools.genresP, "Progressive Rock")
	rock := refByTitle(g.pools.genresP, "Rock")
	politician := refByTitle(g.pools.terms["occupation"], "politician")
	director := refByTitle(g.pools.terms["occupation"], "director")
	bestPicture := refByTitle(g.pools.terms["award"], "Academy Award for Best Picture")

	force := func(e *Entity, canon string, atoms ...Atom) {
		e.Values[canon] = atoms
		if e.force == nil {
			e.force = make(map[string]bool)
		}
		e.force[canon] = true
	}

	actors := truth.Entities["actor"]
	for i, e := range actors {
		switch i % 12 {
		case 0:
			force(e, "occupation", Atom{Kind: KindTerm, Ref: politician})
		case 1:
			force(e, "occupation", Atom{Kind: KindTerm, Ref: director})
			force(e, "nationality", Atom{Kind: KindPlace, Ref: england})
		case 2:
			force(e, "birth place", Atom{Kind: KindPlace, Ref: brazil})
			force(e, "website", Atom{Kind: KindURL, Lit: "http://www." + slug(e.Titles[en]) + ".com"})
		}
	}
	politicians := filterIdx(actors, func(i int) bool { return i%12 == 0 })

	for i, e := range truth.Entities["film"] {
		switch i % 16 {
		case 0:
			force(e, "directed by", Atom{Kind: KindPerson, Ref: coppola})
		case 1:
			force(e, "awards", Atom{Kind: KindTerm, Ref: bestPicture})
			force(e, "country", Atom{Kind: KindPlace, Ref: england})
		case 2:
			force(e, "gross revenue", Atom{Kind: KindMoney, Lit: "40000000"})
		case 3:
			if len(politicians) > 0 {
				p := politicians[(i/16)%len(politicians)]
				atoms := append([]Atom{{Kind: KindWork, Work: p}}, e.Values["starring"]...)
				force(e, "starring", atoms...)
			}
		}
	}
	for i, e := range truth.Entities["artist"] {
		switch i % 12 {
		case 0:
			force(e, "origin", Atom{Kind: KindPlace, Ref: france})
			force(e, "genre", Atom{Kind: KindGenre, Ref: jazz})
		case 1:
			force(e, "genre", Atom{Kind: KindGenre, Ref: progRock})
			force(e, "birth date", Atom{Kind: KindDate, Lit: fmt.Sprintf("19%d-05-14", 55+i%30)})
		}
	}
	for i, e := range truth.Entities["company"] {
		if i%10 == 0 {
			force(e, "revenue", Atom{Kind: KindMoney, Lit: "12000000000"})
		}
	}
	for i, e := range truth.Entities["writer"] {
		if i%8 == 0 {
			force(e, "birth date", Atom{Kind: KindDate, Lit: fmt.Sprintf("19%02d-03-21", 30+i%40)})
		}
	}
	for i, e := range truth.Entities["album"] {
		if i%10 == 0 {
			force(e, "genre", Atom{Kind: KindGenre, Ref: rock})
			force(e, "recorded", Atom{Kind: KindDate, Lit: fmt.Sprintf("19%02d-09-01", 60+i%18)})
		}
	}
	for i, e := range truth.Entities["fictional character"] {
		if i%10 == 0 {
			force(e, "created by", Atom{Kind: KindPerson, Ref: kripke})
		}
	}
}

func filterIdx(ents []*Entity, keep func(int) bool) []*Entity {
	var out []*Entity
	for i, e := range ents {
		if keep(i) {
			out = append(out, e)
		}
	}
	return out
}

// emitEntity renders an entity's articles into the corpus.
func (g *generator) emitEntity(corpus *wiki.Corpus, e *Entity, truth *GroundTruth) error {
	spec := g.specFor(e.Type)
	presence := g.samplePresence(spec, e)
	injections := g.planInjections(spec, e, presence, truth)
	langs := make([]wiki.Language, 0, len(e.Langs))
	for l := range e.Langs {
		langs = append(langs, l)
	}
	sort.Slice(langs, func(i, j int) bool { return langs[i] < langs[j] })
	for _, lang := range langs {
		if !spec.HasLanguage(lang) {
			continue
		}
		a := g.renderArticle(spec, e, lang, presence, injections)
		for _, other := range langs {
			if other != lang && spec.HasLanguage(other) {
				a.SetCrossLink(other, e.Titles[other])
			}
		}
		if err := corpus.Add(a); err != nil {
			return err
		}
	}
	return nil
}

// planInjections decides, per canonical attribute of one entity, whether
// one edition renders a known-wrong value, and records every decision in
// the truth ledger. Injections only target attributes present in at
// least two editions, so every ledger entry is detectable in principle.
// When all injection knobs are zero (the default corpora) no randomness
// is consumed, keeping those corpora byte-identical to earlier builds.
func (g *generator) planInjections(spec *TypeSpec, e *Entity, presence map[string]map[wiki.Language]bool, truth *GroundTruth) map[string]Injection {
	cfg := g.cfg
	if cfg.InjectNumberProb == 0 && cfg.InjectDateProb == 0 &&
		cfg.InjectUnitProb == 0 && cfg.InjectDropProb == 0 {
		return nil
	}
	out := make(map[string]Injection)
	for i := range spec.Attrs {
		attr := &spec.Attrs[i]
		var langs []wiki.Language
		for l, on := range presence[attr.Canon] {
			if on {
				langs = append(langs, l)
			}
		}
		if len(langs) < 2 || len(e.Values[attr.Canon]) == 0 {
			continue
		}
		sort.Slice(langs, func(a, b int) bool { return langs[a] < langs[b] })
		kind := ""
		switch {
		case numberInjectable(attr.Kind) && g.rng.Float64() < cfg.InjectNumberProb:
			kind = InjectNumber
		case attr.Kind == KindDate && g.rng.Float64() < cfg.InjectDateProb:
			kind = InjectDate
		case unitInjectable(attr.Kind) && g.rng.Float64() < cfg.InjectUnitProb:
			kind = InjectUnit
		case g.rng.Float64() < cfg.InjectDropProb:
			kind = InjectDrop
		}
		if kind == "" {
			continue
		}
		victim := langs[g.rng.Intn(len(langs))]
		inj := Injection{
			Kind:   kind,
			Entity: e.ID,
			Type:   e.Type,
			Canon:  attr.Canon,
			Lang:   victim,
			Titles: make(map[wiki.Language]string, len(langs)),
		}
		for _, l := range langs {
			inj.Titles[l] = e.Titles[l]
		}
		out[attr.Canon] = inj
		truth.Injected = append(truth.Injected, inj)
	}
	return out
}

// numberInjectable reports whether a kind's literal can be perturbed.
func numberInjectable(k Kind) bool {
	return k == KindNumber || k == KindYear || k == KindDuration
}

// unitInjectable reports whether a kind renders a unit or scale word a
// rewrite can swap.
func unitInjectable(k Kind) bool {
	return k == KindDuration || k == KindMoney
}

// samplePresence decides, per canonical attribute, in which of the
// entity's language editions it appears, following the overlap model
// described in the package comment.
func (g *generator) samplePresence(spec *TypeSpec, e *Entity) map[string]map[wiki.Language]bool {
	presence := make(map[string]map[wiki.Language]bool, len(spec.Attrs))
	other := g.otherLanguage(e)
	o, singles := 0.6, 1.0
	if other != "" {
		o, singles = solveOverlap(spec, wiki.LanguagePair{A: other, B: en})
	}
	for i := range spec.Attrs {
		attr := &spec.Attrs[i]
		p := make(map[wiki.Language]bool, 2)
		presence[attr.Canon] = p
		forced := e.force[attr.Canon]
		hasEn := attr.Names[en] != nil && e.Langs[en]
		hasOther := other != "" && attr.Names[other] != nil
		if !forced && g.rng.Float64() >= attr.freq() {
			continue
		}
		switch {
		case forced && attr.NoCooccur && hasEn && hasOther:
			// Even planted attributes respect the never-co-occur property;
			// the non-English side wins because the case-study queries
			// originate there (English coverage comes from the extras).
			p[other] = true
		case forced:
			if hasEn {
				p[en] = true
			}
			if hasOther {
				p[other] = true
			}
		case attr.NoCooccur && hasEn && hasOther:
			if g.rng.Float64() < 0.5 {
				p[en] = true
			} else {
				p[other] = true
			}
		case hasEn && hasOther:
			r := g.rng.Float64()
			switch {
			case r < o:
				p[en], p[other] = true, true
			case r < o+(1-o)/2:
				p[other] = true
			default:
				p[en] = true
			}
		case hasEn && other != "":
			if g.rng.Float64() < singles {
				p[en] = true
			}
		case hasEn:
			p[en] = true
		case hasOther:
			if g.rng.Float64() < singles {
				p[other] = true
			}
		}
	}
	return presence
}

// otherLanguage returns the entity's non-English edition, if any.
func (g *generator) otherLanguage(e *Entity) wiki.Language {
	for l := range e.Langs {
		if l != en {
			return l
		}
	}
	return ""
}

// solveOverlap converts a Table 5 overlap target into the per-attribute
// both-sides probability o and a presence multiplier m for attributes
// that exist in only one language's template: measured overlap ≈
// o·s/(s + m·u) where s and u are the expected counts of shared and
// single-language attributes. When even o = 0.97 cannot reach the target
// (homogeneous pairs like Vn-En film), m < 1 thins out the single-side
// attributes, mirroring how real high-overlap pairs simply omit them.
func solveOverlap(spec *TypeSpec, pair wiki.LanguagePair) (o, m float64) {
	target := spec.Overlap[pair.String()]
	if target == 0 {
		target = 0.5
	}
	var s, u float64
	for i := range spec.Attrs {
		attr := &spec.Attrs[i]
		hasA := attr.Names[pair.A] != nil
		hasB := attr.Names[pair.B] != nil
		switch {
		case hasA && hasB && !attr.NoCooccur:
			s += attr.freq()
		case hasA || hasB:
			u += attr.freq()
		}
	}
	if s == 0 {
		return 0.5, 1
	}
	o = target * (s + u) / s
	m = 1
	if o > 0.97 {
		o = 0.97
		if u > 0 {
			m = (o*s/target - s) / u
			if m < 0.05 {
				m = 0.05
			}
		}
	}
	if o < 0.05 {
		o = 0.05
	}
	return o, m
}

// renderArticle builds one language edition's article for an entity.
func (g *generator) renderArticle(spec *TypeSpec, e *Entity, lang wiki.Language, presence map[string]map[wiki.Language]bool, injections map[string]Injection) *wiki.Article {
	ib := &wiki.Infobox{Template: spec.Template[lang]}
	// Group selected canonical attributes by chosen surface name so that
	// polysemous names (English "born") merge into one attribute.
	type slot struct {
		text  []string
		links []wiki.Link
	}
	order := []string{}
	slots := map[string]*slot{}
	for i := range spec.Attrs {
		attr := &spec.Attrs[i]
		if !presence[attr.Canon][lang] {
			continue
		}
		inject := ""
		if inj, ok := injections[attr.Canon]; ok && inj.Lang == lang {
			if inj.Kind == InjectDrop {
				continue
			}
			inject = inj.Kind
		}
		name := pickName(g.rng, attr.Names[lang])
		text, links := g.renderValue(e, attr, lang, inject)
		if text == "" {
			continue
		}
		s := slots[name]
		if s == nil {
			s = &slot{}
			slots[name] = s
			order = append(order, name)
		}
		s.text = append(s.text, text)
		s.links = append(s.links, links...)
	}
	for _, name := range order {
		s := slots[name]
		ib.Attrs = append(ib.Attrs, wiki.AttributeValue{
			Name:  name,
			Text:  strings.Join(s.text, ", "),
			Links: s.links,
		})
	}
	return &wiki.Article{
		Language: lang,
		Title:    e.Titles[lang],
		Type:     spec.TypeName(lang),
		Infobox:  ib,
		// The localized type doubles as a category, so category-based
		// type assignment (wiki.AssignTypesFromCategories) has material
		// to work with — the paper's Section 2 alternative mechanism.
		Categories: []string{spec.TypeName(lang)},
	}
}

// renderValue renders an attribute's atoms in one language, applying the
// per-language noise model and, when inject names an injection kind, the
// planned inconsistency.
func (g *generator) renderValue(e *Entity, attr *AttrSpec, lang wiki.Language, inject string) (string, []wiki.Link) {
	atoms := e.Values[attr.Canon]
	if len(atoms) == 0 {
		return "", nil
	}
	work := append([]Atom(nil), atoms...)
	if len(work) > 1 && g.rng.Float64() < g.cfg.DropAtomProb {
		drop := g.rng.Intn(len(work))
		work = append(work[:drop], work[drop+1:]...)
	}
	if g.rng.Float64() < g.cfg.MisfileProb {
		if stray, ok := g.strayAtom(e, attr.Canon); ok {
			work = append(work, stray)
		}
	}
	var parts []string
	var links []wiki.Link
	for _, a := range work {
		text, link := g.renderAtom(e, a, lang, inject)
		if text == "" {
			continue
		}
		parts = append(parts, text)
		if link != nil {
			links = append(links, *link)
		}
	}
	return strings.Join(parts, ", "), links
}

// strayAtom picks an atom from another attribute of the entity.
func (g *generator) strayAtom(e *Entity, excludeCanon string) (Atom, bool) {
	var canons []string
	for c, atoms := range e.Values {
		if c != excludeCanon && len(atoms) > 0 {
			canons = append(canons, c)
		}
	}
	if len(canons) == 0 {
		return Atom{}, false
	}
	sort.Strings(canons)
	c := pick(g.rng, canons)
	return pick(g.rng, e.Values[c]), true
}

// renderAtom renders one atom in one language. A non-empty inject names
// the planned inconsistency kind to apply to this edition's rendering.
func (g *generator) renderAtom(e *Entity, a Atom, lang wiki.Language, inject string) (string, *wiki.Link) {
	switch a.Kind {
	case KindSelf:
		return e.Title(lang), nil
	case KindPerson, KindPlace, KindOrg, KindGenre, KindLangName:
		g.useRef(a.Ref)
		title := a.Ref.Title(lang)
		anchor := title
		if g.rng.Float64() < g.cfg.AnchorAliasProb {
			if alias := anchorAlias(a.Ref, lang); alias != "" {
				anchor = alias
			}
		}
		if g.rng.Float64() < g.cfg.LinkProb {
			return anchor, &wiki.Link{Target: title, Anchor: anchor}
		}
		return anchor, nil
	case KindWork:
		title := a.Work.Title(lang)
		if g.rng.Float64() < g.cfg.LinkProb {
			return title, &wiki.Link{Target: title, Anchor: title}
		}
		return title, nil
	case KindDate:
		y, m, d := parseDateLit(a.Lit)
		if g.rng.Float64() < g.cfg.PerturbProb {
			d = d%28 + 1
		}
		if inject == InjectDate {
			// Deterministic shift that never lands on the original day.
			d = (d+6)%28 + 1
		}
		return g.renderDate(y, m, d, lang)
	case KindYear:
		lit := a.Lit
		if g.rng.Float64() < g.cfg.PerturbProb {
			lit = perturbInt(lit, 1)
		}
		if inject == InjectNumber {
			lit = perturbInt(lit, 1+g.rng.Intn(4))
		}
		return lit, nil
	case KindDuration:
		lit := a.Lit
		if g.rng.Float64() < g.cfg.PerturbProb {
			lit = perturbInt(lit, 5)
		}
		if inject == InjectNumber {
			lit = perturbInt(lit, 3+g.rng.Intn(12))
		}
		unit := map[wiki.Language]string{pt: " min", vn: " phút", en: " minutes"}[lang]
		if inject == InjectUnit {
			// Converted-unit rewrite: keep the written magnitude, swap
			// the unit word (the "160 hours for 160 minutes" error).
			unit = map[wiki.Language]string{pt: " horas", vn: " giờ", en: " hours"}[lang]
		}
		return lit + unit, nil
	case KindMoney:
		return renderMoney(a.Lit, lang, inject == InjectUnit), nil
	case KindNumber:
		lit := a.Lit
		if g.rng.Float64() < g.cfg.PerturbProb {
			lit = perturbInt(lit, 1)
		}
		if inject == InjectNumber {
			lit = perturbInt(lit, 1+g.rng.Intn(9))
		}
		return lit, nil
	case KindURL, KindSpan:
		return a.Lit, nil
	case KindTerm:
		if a.Ref != nil {
			g.useRef(a.Ref)
			title := a.Ref.Title(lang)
			if g.rng.Float64() < g.cfg.LinkProb {
				return title, &wiki.Link{Target: title, Anchor: title}
			}
			return title, nil
		}
		return a.Term.In(lang), nil
	}
	return "", nil
}

// renderDate renders a date per language convention, optionally linking
// its day-month stub.
func (g *generator) renderDate(y, m, d int, lang wiki.Language) (string, *wiki.Link) {
	month := monthNames[m-1]
	var text, dayMonth string
	switch lang {
	case pt:
		dayMonth = fmt.Sprintf("%d de %s", d, month.PT)
		text = fmt.Sprintf("%s de %d", dayMonth, y)
	case vn:
		dayMonth = fmt.Sprintf("%d %s", d, month.VN)
		text = fmt.Sprintf("%s năm %d", dayMonth, y)
	default:
		dayMonth = fmt.Sprintf("%s %d", month.EN, d)
		text = fmt.Sprintf("%s, %d", dayMonth, y)
	}
	if g.rng.Float64() < g.cfg.LinkDateProb {
		ref := g.pools.dayMonth(d, m)
		g.useRef(ref)
		return text, &wiki.Link{Target: ref.Title(lang), Anchor: dayMonth}
	}
	return text, nil
}

func parseDateLit(lit string) (y, m, d int) {
	fmt.Sscanf(lit, "%d-%d-%d", &y, &m, &d)
	return
}

func perturbInt(lit string, delta int) string {
	var v int
	if _, err := fmt.Sscanf(lit, "%d", &v); err != nil {
		return lit
	}
	return fmt.Sprintf("%d", v+delta)
}

// renderMoney formats a canonical dollar amount per language. With
// swapScale the written magnitude is kept but the scale word is swapped
// (milhões → bilhões and vice versa) — the converted-unit injection.
func renderMoney(lit string, lang wiki.Language, swapScale bool) string {
	var v int64
	fmt.Sscanf(lit, "%d", &v)
	billions := v >= 1_000_000_000
	n := v / 1_000_000
	if billions {
		n = v / 1_000_000_000
	}
	if swapScale {
		billions = !billions
	}
	if billions {
		switch lang {
		case pt:
			return fmt.Sprintf("US$ %d bilhões", n)
		case vn:
			return fmt.Sprintf("%d tỷ USD", n)
		default:
			return fmt.Sprintf("$%d billion", n)
		}
	}
	switch lang {
	case pt:
		return fmt.Sprintf("US$ %d milhões", n)
	case vn:
		return fmt.Sprintf("%d triệu USD", n)
	default:
		return fmt.Sprintf("$%d million", n)
	}
}

// anchorAlias derives an alternative anchor text for a reference entity:
// the curated alias when one exists ("USA"), an initialed surname for
// persons ("J. Silva"), the leading word for organizations ("Meridian").
// This is the anchor heterogeneity the paper calls out in Section 3.2
// ("anchor texts referring to the same entity may be different").
func anchorAlias(r *RefEntity, lang wiki.Language) string {
	if alias, ok := r.Aliases[lang]; ok && alias != "" {
		return alias
	}
	title := r.Title(lang)
	switch r.Kind {
	case KindPerson:
		fields := strings.Fields(title)
		if len(fields) >= 2 {
			return string([]rune(fields[0])[:1]) + ". " + fields[len(fields)-1]
		}
	case KindOrg:
		fields := strings.Fields(title)
		if len(fields) >= 2 {
			return fields[0]
		}
	}
	return ""
}

// useRef marks a reference entity as needing a stub article.
func (g *generator) useRef(r *RefEntity) {
	g.usedRefs[r.ID] = r
}

// emitStubs writes stub articles (no infobox) for every referenced
// entity in all three language editions. Head entities (places, genres,
// language names, article-backed terms) are always fully interlinked —
// they are high-traffic pages in every edition — while the long tail
// (persons, organizations, day-month pages) carries interlanguage links
// only with probability StubCrossLinkProb, modeling the incompleteness
// of Wikipedia's cross-language structure.
func (g *generator) emitStubs(corpus *wiki.Corpus) error {
	ids := make([]string, 0, len(g.usedRefs))
	for id := range g.usedRefs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	langs := []wiki.Language{en, pt, vn}
	for _, id := range ids {
		r := g.usedRefs[id]
		head := false
		switch r.Kind {
		case KindPlace, KindGenre, KindLangName, KindTerm:
			head = true
		}
		linked := make(map[[2]wiki.Language]bool)
		for i, la := range langs {
			for _, lb := range langs[i+1:] {
				linked[[2]wiki.Language{la, lb}] = head || g.rng.Float64() < g.cfg.StubCrossLinkProb
			}
		}
		has := func(la, lb wiki.Language) bool {
			if la > lb {
				la, lb = lb, la
			}
			return linked[[2]wiki.Language{la, lb}]
		}
		for _, lang := range langs {
			a := &wiki.Article{Language: lang, Title: r.Title(lang)}
			for _, other := range langs {
				if other != lang && has(lang, other) {
					a.SetCrossLink(other, r.Title(other))
				}
			}
			if err := corpus.Add(a); err != nil {
				return fmt.Errorf("stub %s in %s: %w", r.ID, lang, err)
			}
		}
	}
	return nil
}
