package text

import "math"

// TF is a sparse term-frequency vector: term → raw frequency. The paper's
// value-similarity measure (vsim) is the cosine between two TF vectors
// whose terms are whole attribute values (after dictionary translation);
// the link-structure measure (lsim) uses TF vectors over link targets.
type TF map[string]float64

// Add increments the frequency of term by w.
func (v TF) Add(term string, w float64) {
	if term != "" {
		v[term] += w
	}
}

// Norm returns the Euclidean norm of the vector.
func (v TF) Norm() float64 {
	var s float64
	for _, f := range v {
		s += f * f
	}
	return math.Sqrt(s)
}

// Dot returns the dot product of two TF vectors.
func (v TF) Dot(w TF) float64 {
	// Iterate over the smaller map.
	if len(w) < len(v) {
		v, w = w, v
	}
	var s float64
	for t, f := range v {
		if g, ok := w[t]; ok {
			s += f * g
		}
	}
	return s
}

// Cosine returns the cosine similarity between two TF vectors, in [0, 1]
// for non-negative frequencies. Either vector being empty yields 0.
func (v TF) Cosine(w TF) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := v.Dot(w) / (nv * nw)
	// Clamp floating-point spill.
	if c > 1 {
		c = 1
	}
	if c < 0 {
		c = 0
	}
	return c
}
