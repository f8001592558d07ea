// Package flooding implements similarity flooding (Melnik,
// Garcia-Molina and Rahm, ICDE 2002) adapted to infobox schema matching
// — the fixed-point matching strategy the paper names as future work in
// its conclusion.
//
// The pairwise connectivity graph is built from the one structural
// relation infobox schemas expose: co-occurrence within a language.
// A map pair (a, b) — a source-language attribute aligned with a
// target-language one — is connected to (a′, b′) when a and a′
// frequently co-occur in source infoboxes and b and b′ frequently
// co-occur in target infoboxes. Initial similarities come from the same
// value/link evidence WikiMatch uses; the fixpoint iteration then lets
// well-supported neighbourhoods reinforce each other.
package flooding

import (
	"math"
	"sort"

	"repro/internal/eval"
	"repro/internal/sim"
)

// Config tunes the fixpoint computation.
type Config struct {
	// MaxIters bounds the fixpoint iteration (default 50).
	MaxIters int
	// Epsilon is the convergence threshold on the residual (default 1e-4).
	Epsilon float64
	// MinGrouping is the grouping-score threshold above which two
	// same-language attributes count as structurally related (default 0.3).
	MinGrouping float64
	// SelectThreshold discards map pairs whose converged similarity falls
	// below this fraction of their row maximum (default 0.95 — argmax-like
	// selection with tolerance for ties).
	SelectThreshold float64
}

// DefaultConfig returns the standard parameters.
func DefaultConfig() Config {
	return Config{MaxIters: 50, Epsilon: 1e-4, MinGrouping: 0.3, SelectThreshold: 0.95}
}

// pairNode is one node of the pairwise connectivity graph.
type pairNode struct {
	i, j  int // attribute indices on the A and B sides
	sigma float64
	init  float64
	edges []edge
}

type edge struct {
	to int
	w  float64
}

// graph holds the flooding state.
type graph struct {
	nodes []pairNode
	index map[[2]int]int
}

// build constructs the pairwise connectivity graph for a type.
func build(td *sim.TypeData, cfg Config) *graph {
	g := &graph{index: make(map[[2]int]int)}
	for _, p := range td.CrossPairs() {
		init := td.VSim(p[0], p[1])
		if l := td.LSim(p[0], p[1]); l > init {
			init = l
		}
		g.index[[2]int{p[0], p[1]}] = len(g.nodes)
		g.nodes = append(g.nodes, pairNode{i: p[0], j: p[1], sigma: init, init: init})
	}
	// Structural relations per language side.
	related := func(x, y int) bool {
		return td.Attrs[x].Lang == td.Attrs[y].Lang && td.Grouping(x, y) >= cfg.MinGrouping
	}
	// For each node, connect to nodes whose both sides are related.
	// Propagation weight: each node distributes 1 over its out-edges.
	for n := range g.nodes {
		a, b := g.nodes[n].i, g.nodes[n].j
		for m := range g.nodes {
			if m == n {
				continue
			}
			a2, b2 := g.nodes[m].i, g.nodes[m].j
			if a2 != a && b2 != b && related(a, a2) && related(b, b2) {
				g.nodes[n].edges = append(g.nodes[n].edges, edge{to: m})
			}
		}
	}
	for n := range g.nodes {
		if d := len(g.nodes[n].edges); d > 0 {
			w := 1 / float64(d)
			for e := range g.nodes[n].edges {
				g.nodes[n].edges[e].w = w
			}
		}
	}
	return g
}

// run iterates the fixpoint (Melnik's variant C):
// σ^{k+1} = normalize(σ⁰ + σ^k + φ(σ⁰ + σ^k)).
func (g *graph) run(cfg Config) int {
	if len(g.nodes) == 0 {
		return 0
	}
	next := make([]float64, len(g.nodes))
	iters := 0
	for ; iters < cfg.MaxIters; iters++ {
		for n := range next {
			next[n] = g.nodes[n].init + g.nodes[n].sigma
		}
		for n := range g.nodes {
			inject := g.nodes[n].init + g.nodes[n].sigma
			for _, e := range g.nodes[n].edges {
				next[e.to] += inject * e.w
			}
		}
		// Normalize by the maximum.
		var maxV float64
		for _, v := range next {
			if v > maxV {
				maxV = v
			}
		}
		if maxV == 0 {
			break
		}
		var residual float64
		for n := range g.nodes {
			v := next[n] / maxV
			if d := math.Abs(v - g.nodes[n].sigma); d > residual {
				residual = d
			}
			g.nodes[n].sigma = v
		}
		if residual < cfg.Epsilon {
			iters++
			break
		}
	}
	return iters
}

// Match runs similarity flooding and selects correspondences: per
// source attribute, the candidates within SelectThreshold of the row
// maximum, provided they carry non-zero initial evidence.
func Match(td *sim.TypeData, cfg Config) eval.Correspondences {
	g := build(td, cfg)
	g.run(cfg)
	rowMax := map[int]float64{}
	for _, n := range g.nodes {
		if n.sigma > rowMax[n.i] {
			rowMax[n.i] = n.sigma
		}
	}
	out := make(eval.Correspondences)
	// Deterministic iteration order.
	order := make([]int, len(g.nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		nx, ny := g.nodes[order[x]], g.nodes[order[y]]
		if nx.i != ny.i {
			return nx.i < ny.i
		}
		return nx.j < ny.j
	})
	for _, idx := range order {
		n := g.nodes[idx]
		if n.init <= 0 || rowMax[n.i] == 0 {
			continue
		}
		if n.sigma >= rowMax[n.i]*cfg.SelectThreshold {
			out.Add(td.Attrs[n.i].Name, td.Attrs[n.j].Name)
		}
	}
	return out
}
