package multi

import (
	"fmt"
	"sort"

	"repro/internal/eval"
	"repro/internal/wiki"
)

// Attr identifies one attribute node across the whole corpus: a
// normalized attribute name within one entity type of one language
// edition. Attribute names only mean something inside their type
// ("direção" of filme and of televisão are different nodes), so the type
// is part of the identity.
type Attr struct {
	Lang wiki.Language `json:"lang"`
	Type string        `json:"type"`
	Name string        `json:"name"`
}

// String renders the node as "pt:filme/direção".
func (a Attr) String() string { return fmt.Sprintf("%s:%s/%s", a.Lang, a.Type, a.Name) }

func attrLess(a, b Attr) bool {
	if a.Lang != b.Lang {
		return a.Lang < b.Lang
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Name < b.Name
}

// Correspondence is one cross-language attribute equivalence inside a
// cluster. Direct correspondences were derived by a pairwise matching
// run; the rest are transitive — implied by chains of direct matches
// through intermediate languages (the pivot), with Confidence set to the
// best bottleneck confidence over connecting chains. Supported marks
// direct correspondences that a transitive chain through a third
// language agrees with (transitive ones are supported by construction).
type Correspondence struct {
	A          Attr    `json:"a"`
	B          Attr    `json:"b"`
	Confidence float64 `json:"confidence"`
	Direct     bool    `json:"direct"`
	Supported  bool    `json:"supported"`
}

// Conflict is a direct-vs-transitive disagreement: the chain A–Via–B
// implies the correspondence A~B, the languages of A and B were matched
// directly (their pair is in the plan, succeeded, and aligned the two
// types), yet the direct run derived no A~B. Pivot-mode batches cannot
// produce conflicts — non-hub pairs are never matched directly.
type Conflict struct {
	A   Attr `json:"a"`
	B   Attr `json:"b"`
	Via Attr `json:"via"`
}

// Cluster is one connected component of the cross-language
// correspondence graph: a set of attribute nodes that all name the same
// latent attribute, with the correspondences (direct and transitive)
// connecting them.
type Cluster struct {
	ID int `json:"id"`
	// Languages lists the editions represented, sorted.
	Languages []wiki.Language `json:"languages"`
	// Types groups the member entity types per language, sorted.
	Types map[wiki.Language][]string `json:"types"`
	// Members lists the attribute nodes, sorted.
	Members []Attr `json:"members"`
	// Correspondences lists every cross-language member pair, sorted.
	Correspondences []Correspondence `json:"correspondences"`
	// Conflicts lists the direct-vs-transitive disagreements.
	Conflicts []Conflict `json:"conflicts,omitempty"`
	// Agreement is the fraction of direct correspondences with a
	// transitive chain to agree with that the chain confirms; 1 when no
	// direct correspondence is checkable (two-language clusters).
	Agreement float64 `json:"agreement"`
}

// langType names one entity type of one language edition.
type langType struct {
	Lang wiki.Language
	Type string
}

// clusterGraph is the shared state the per-cluster assembly reads: the
// direct correspondence adjacency, and per successfully matched pair the
// type-pair alignment (for conflict detection) and the per-side aligned
// types (for deciding whether a transitive chain was even attempted).
type clusterGraph struct {
	plan Plan
	// langs is every language covered by the plan, sorted.
	langs []wiki.Language
	adj   map[Attr]map[Attr]float64
	// typePairAligned[pair][tp] reports the pair's matcher aligned the
	// entity-type pair tp.
	typePairAligned map[wiki.LanguagePair]map[[2]string]bool
	// typeAligned[pair][lt] reports the pair's matcher aligned the type
	// lt.Type of edition lt.Lang with some counterpart — i.e. matching
	// this type across the pair was attempted at all.
	typeAligned map[wiki.LanguagePair]map[langType]bool
}

// BuildClusters merges the pairwise correspondences of the successful
// outcomes into connected components and scores their internal
// agreement. Failed outcomes contribute nothing; the plan tells the
// conflict detector which language pairs were matched directly.
func BuildClusters(plan Plan, outcomes []PairOutcome) []Cluster {
	g := &clusterGraph{
		plan:            plan,
		adj:             make(map[Attr]map[Attr]float64),
		typePairAligned: make(map[wiki.LanguagePair]map[[2]string]bool),
		typeAligned:     make(map[wiki.LanguagePair]map[langType]bool),
	}
	langSet := make(map[wiki.Language]bool)
	for _, pair := range plan.Pairs {
		langSet[pair.A] = true
		langSet[pair.B] = true
	}
	for l := range langSet {
		g.langs = append(g.langs, l)
	}
	sort.Slice(g.langs, func(i, j int) bool { return g.langs[i] < g.langs[j] })

	addEdge := func(a, b Attr, conf float64) {
		for _, e := range [2][2]Attr{{a, b}, {b, a}} {
			m := g.adj[e[0]]
			if m == nil {
				m = make(map[Attr]float64)
				g.adj[e[0]] = m
			}
			if old, ok := m[e[1]]; !ok || conf > old {
				m[e[1]] = conf
			}
		}
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.Err != nil || o.Result == nil {
			continue
		}
		tpAligned := make(map[[2]string]bool, len(o.Result.Types))
		tAligned := make(map[langType]bool, 2*len(o.Result.Types))
		for _, tp := range o.Result.Types {
			tpAligned[tp] = true
			tAligned[langType{o.Pair.A, tp[0]}] = true
			tAligned[langType{o.Pair.B, tp[1]}] = true
			tr := o.Result.PerType[tp]
			for aName, bs := range tr.Cross {
				a := Attr{Lang: o.Pair.A, Type: tp[0], Name: aName}
				for bName := range bs {
					b := Attr{Lang: o.Pair.B, Type: tp[1], Name: bName}
					addEdge(a, b, tr.Confidence(aName, bName))
				}
			}
		}
		g.typePairAligned[o.Pair] = tpAligned
		g.typeAligned[o.Pair] = tAligned
	}

	// Connected components via union-find over the nodes.
	uf := newUnionFind()
	for a, nbrs := range g.adj {
		for b := range nbrs {
			uf.union(a, b)
		}
	}
	byRoot := make(map[Attr][]Attr)
	for a := range g.adj {
		root := uf.find(a)
		byRoot[root] = append(byRoot[root], a)
	}

	clusters := make([]Cluster, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Slice(members, func(i, j int) bool { return attrLess(members[i], members[j]) })
		clusters = append(clusters, g.buildCluster(members))
	}
	sort.Slice(clusters, func(i, j int) bool {
		return attrLess(clusters[i].Members[0], clusters[j].Members[0])
	})
	for i := range clusters {
		clusters[i].ID = i
	}
	return clusters
}

// buildCluster assembles one component: its correspondences (direct and
// transitive), conflict records, and the agreement score.
func (g *clusterGraph) buildCluster(members []Attr) Cluster {
	c := Cluster{Members: members, Types: make(map[wiki.Language][]string)}
	langSet := make(map[wiki.Language]bool)
	typeSeen := make(map[langType]bool)
	for _, m := range members {
		langSet[m.Lang] = true
		if k := (langType{m.Lang, m.Type}); !typeSeen[k] {
			typeSeen[k] = true
			c.Types[m.Lang] = append(c.Types[m.Lang], m.Type)
		}
	}
	for l := range langSet {
		c.Languages = append(c.Languages, l)
		sort.Strings(c.Types[l])
	}
	sort.Slice(c.Languages, func(i, j int) bool { return c.Languages[i] < c.Languages[j] })

	// Bottleneck relaxations are memoized per source node: every
	// transitive pair from the same member reuses one traversal, keeping
	// large clusters quadratic rather than cubic.
	bottlenecks := make(map[Attr]map[Attr]float64)
	bottleneckTo := func(a, b Attr) float64 {
		best, ok := bottlenecks[a]
		if !ok {
			best = relaxBottlenecks(a, g.adj)
			bottlenecks[a] = best
		}
		return clampConfidence(best[b])
	}

	checkable, supported := 0, 0
	for i, a := range members {
		for _, b := range members[i+1:] {
			if a.Lang == b.Lang {
				continue
			}
			conf, direct := g.adj[a][b]
			via, hasChain := g.commonNeighbor(a, b)
			if direct {
				if g.chainAttempted(a, b) {
					checkable++
					if hasChain {
						supported++
					}
				}
				c.Correspondences = append(c.Correspondences, Correspondence{
					A: a, B: b, Confidence: conf, Direct: true, Supported: hasChain,
				})
				continue
			}
			// Transitive correspondence: score it by the best bottleneck
			// confidence over connecting chains of direct matches.
			c.Correspondences = append(c.Correspondences, Correspondence{
				A: a, B: b, Confidence: bottleneckTo(a, b),
				Direct: false, Supported: true,
			})
			// Direct-vs-transitive conflict: the languages were matched
			// head on, the matcher aligned these two entity types, and
			// still produced no correspondence the chain implies.
			if g.directlyRejected(a, b) {
				if !hasChain {
					// The chain runs through longer paths; pick the first
					// hop from a toward b as the witness.
					via = firstHop(a, b, g.adj)
				}
				c.Conflicts = append(c.Conflicts, Conflict{A: a, B: b, Via: via})
			}
		}
	}
	sort.Slice(c.Correspondences, func(i, j int) bool {
		x, y := c.Correspondences[i], c.Correspondences[j]
		if x.A != y.A {
			return attrLess(x.A, y.A)
		}
		return attrLess(x.B, y.B)
	})
	sort.Slice(c.Conflicts, func(i, j int) bool {
		x, y := c.Conflicts[i], c.Conflicts[j]
		if x.A != y.A {
			return attrLess(x.A, y.A)
		}
		return attrLess(x.B, y.B)
	})
	c.Agreement = 1
	if checkable > 0 {
		c.Agreement = float64(supported) / float64(checkable)
	}
	return c
}

// commonNeighbor finds a third-language witness adjacent to both ends —
// the two-hop chain that corroborates (or substitutes for) a direct
// correspondence.
func (g *clusterGraph) commonNeighbor(a, b Attr) (Attr, bool) {
	best, found := Attr{}, false
	for n := range g.adj[a] {
		if n.Lang == a.Lang || n.Lang == b.Lang {
			continue
		}
		if _, ok := g.adj[b][n]; !ok {
			continue
		}
		if !found || attrLess(n, best) {
			best, found = n, true
		}
	}
	return best, found
}

// chainAttempted reports whether a corroborating two-hop chain for the
// direct correspondence (a, b) was actually attempted: some third
// language L was matched against both endpoints' editions, and both of
// those runs aligned the endpoint's entity type. Only then does the
// absence of a chain count against the agreement score — a pivot-mode
// batch never attempts non-hub chains, so its direct correspondences
// are never checkable and agreement stays vacuously 1.
func (g *clusterGraph) chainAttempted(a, b Attr) bool {
	for _, l := range g.langs {
		if l == a.Lang || l == b.Lang {
			continue
		}
		pa := wiki.OrientPair(a.Lang, l, g.plan.Hub)
		pb := wiki.OrientPair(b.Lang, l, g.plan.Hub)
		if g.typeAligned[pa][langType{a.Lang, a.Type}] && g.typeAligned[pb][langType{b.Lang, b.Type}] {
			return true
		}
	}
	return false
}

// directlyRejected reports whether the transitive correspondence (a, b)
// contradicts a direct matching run: the pair of their editions was
// planned, succeeded, aligned these two entity types — and still derived
// no correspondence between the attributes.
func (g *clusterGraph) directlyRejected(a, b Attr) bool {
	pair := wiki.OrientPair(a.Lang, b.Lang, g.plan.Hub)
	aligned := g.typePairAligned[pair]
	if aligned == nil {
		return false
	}
	tp := [2]string{a.Type, b.Type}
	if pair.A != a.Lang {
		tp = [2]string{b.Type, a.Type}
	}
	return aligned[tp]
}

// relaxBottlenecks computes the widest-path score from one node to every
// node it reaches: over all chains of direct correspondences, the
// maximum of the minimum edge confidence — how strong the weakest link
// of the best supporting chain is. A simple fixpoint relaxation
// suffices; callers memoize per source so each cluster traverses once
// per member at most.
func relaxBottlenecks(from Attr, adj map[Attr]map[Attr]float64) map[Attr]float64 {
	const inf = 2 // above any confidence in [0, 1]
	best := map[Attr]float64{from: inf}
	for changed := true; changed; {
		changed = false
		for u, bu := range best {
			for v, conf := range adj[u] {
				w := bu
				if conf < w {
					w = conf
				}
				if w > best[v] {
					best[v] = w
					changed = true
				}
			}
		}
	}
	return best
}

// clampConfidence maps a relaxation score onto [0, 1]: unreachable nodes
// score 0 and the source's own sentinel caps at full confidence.
func clampConfidence(b float64) float64 {
	if b > 1 {
		return 1
	}
	return b
}

// firstHop returns the lowest neighbor of a that leads toward b — a
// deterministic witness when the connecting chain is longer than two
// hops.
func firstHop(a, b Attr, adj map[Attr]map[Attr]float64) Attr {
	best, found := Attr{}, false
	for n := range adj[a] {
		if n == b {
			continue
		}
		if !found || attrLess(n, best) {
			best, found = n, true
		}
	}
	return best
}

// Induced projects the batch's clusters back onto one language pair: for
// every cluster correspondence between pair.A and pair.B (direct or
// transitive), the (a, b) name pair is recorded under its entity-type
// pair. This is the bridge to the pairwise evaluation machinery — the
// returned sets score directly against internal/eval gold data, which is
// how cluster precision/recall is measured.
func (b *BatchResult) Induced(pair wiki.LanguagePair) map[[2]string]eval.Correspondences {
	out := make(map[[2]string]eval.Correspondences)
	add := func(tp [2]string, a, bName string) {
		set := out[tp]
		if set == nil {
			set = make(eval.Correspondences)
			out[tp] = set
		}
		set.Add(a, bName)
	}
	for _, cl := range b.Clusters {
		for _, corr := range cl.Correspondences {
			switch {
			case corr.A.Lang == pair.A && corr.B.Lang == pair.B:
				add([2]string{corr.A.Type, corr.B.Type}, corr.A.Name, corr.B.Name)
			case corr.B.Lang == pair.A && corr.A.Lang == pair.B:
				add([2]string{corr.B.Type, corr.A.Type}, corr.B.Name, corr.A.Name)
			}
		}
	}
	return out
}

// unionFind is a map-based disjoint-set forest over attribute nodes.
type unionFind struct {
	parent map[Attr]Attr
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[Attr]Attr)} }

func (u *unionFind) find(a Attr) Attr {
	p, ok := u.parent[a]
	if !ok {
		u.parent[a] = a
		return a
	}
	if p == a {
		return a
	}
	root := u.find(p)
	u.parent[a] = root
	return root
}

func (u *unionFind) union(a, b Attr) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		// Deterministic root choice keeps iteration-order effects out.
		if attrLess(rb, ra) {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}
