package core

import (
	"repro/internal/lsi"
	"repro/internal/sim"
)

// Correspondence confidence — the uncertainty handle the paper's
// conclusion asks for ("we plan to explore approaches that take
// uncertainty into account"): every derived cross-language pair gets a
// score in [0, 1] combining its direct similarity evidence, its LSI
// correlation, and how it was admitted (certain match, revision, or
// transitive closure of a synonym component). Downstream consumers —
// query translation in particular — use it to prefer well-supported
// attribute translations.

// Admission strength by provenance.
const (
	admittedCertain    = 1.0
	admittedRevision   = 0.6
	admittedTransitive = 0.3
)

// NewTypeResult builds a TypeResult directly from derived
// correspondences and their confidences, without the matcher's internal
// workspaces — the constructor for adapters (and tests) that obtain
// correspondences from somewhere other than a local matching run, e.g. a
// remote matcher's wire response. Confidences missing from conf default
// to 0.
func NewTypeResult(typeA, typeB string, cross map[string]map[string]bool, conf map[[2]string]float64) *TypeResult {
	r := &TypeResult{
		TypeA: typeA,
		TypeB: typeB,
		Cross: make(map[string]map[string]bool, len(cross)),
		conf:  make(map[[2]string]float64, len(conf)),
	}
	for a, bs := range cross {
		r.Cross[a] = make(map[string]bool, len(bs))
		for b := range bs {
			r.Cross[a][b] = true
		}
	}
	for k, v := range conf {
		r.conf[k] = v
	}
	return r
}

// Confidence returns the confidence of a derived cross-language pair
// (by normalized attribute names), or 0 when the pair was not derived.
func (r *TypeResult) Confidence(a, b string) float64 {
	return r.confidences()[[2]string{a, b}]
}

// Confidences returns every derived pair with its confidence.
func (r *TypeResult) Confidences() map[[2]string]float64 {
	conf := r.confidences()
	out := make(map[[2]string]float64, len(conf))
	for k, v := range conf {
		out[k] = v
	}
	return out
}

// confidences returns the per-pair confidence table, building it on
// first use. The build stays lazy — runs that never ask for confidences
// never pay for them — and happens once even when many goroutines read
// one shared result. NewTypeResult fills the table up front, so its
// results skip the build.
func (r *TypeResult) confidences() map[[2]string]float64 {
	r.confOnce.Do(func() {
		if r.conf == nil {
			r.conf = r.buildConfidence()
		}
	})
	return r.conf
}

// buildConfidence scores the derived pairs from the run's evidence.
func (r *TypeResult) buildConfidence() map[[2]string]float64 {
	out := make(map[[2]string]float64)
	// Index candidates by attribute-index pair for provenance lookup.
	type prov struct {
		vsim, lsim, lsiScore float64
		admitted             float64
	}
	provenance := make(map[[2]int]prov, len(r.Candidates))
	for _, c := range r.Candidates {
		p := prov{vsim: c.VSim, lsim: c.LSim, lsiScore: c.LSI, admitted: admittedTransitive}
		if c.AcceptedCertain {
			p.admitted = admittedCertain
		} else if c.AcceptedRevision {
			p.admitted = admittedRevision
		}
		key := [2]int{c.I, c.J}
		if c.J < c.I {
			key = [2]int{c.J, c.I}
		}
		provenance[key] = p
	}
	for aName, bs := range r.Cross {
		i := r.TD.AttrIndex(sim.Attr{Lang: r.TD.Pair.A, Name: aName})
		for bName := range bs {
			j := r.TD.AttrIndex(lsi.Attr{Lang: r.TD.Pair.B, Name: bName})
			if i < 0 || j < 0 {
				continue
			}
			key := [2]int{i, j}
			if j < i {
				key = [2]int{j, i}
			}
			p, direct := provenance[key]
			if !direct {
				// The pair entered the match only through component
				// transitivity; score it from fresh evidence.
				p = prov{
					vsim:     r.TD.VSim(i, j),
					lsim:     r.TD.LSim(i, j),
					lsiScore: r.LSI.ScoreAttrs(r.TD.Attrs[i], r.TD.Attrs[j]),
					admitted: admittedTransitive,
				}
			}
			evidence := p.vsim
			if p.lsim > evidence {
				evidence = p.lsim
			}
			conf := 0.45*evidence + 0.35*p.lsiScore + 0.2*p.admitted
			if conf > 1 {
				conf = 1
			}
			out[[2]string{aName, bName}] = conf
		}
	}
	return out
}
