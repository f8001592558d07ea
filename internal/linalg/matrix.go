// Package linalg implements the dense linear algebra needed by Latent
// Semantic Indexing: matrices, and a one-sided Jacobi singular value
// decomposition with truncation. The implementation favors clarity and
// numerical robustness over speed; LSI occurrence matrices in this system
// are at most a few hundred rows/columns.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, Data[r*Cols+c]
}

// NewMatrix allocates a zero Rows×Cols matrix. It panics on negative
// dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	cp := NewMatrix(m.Rows, m.Cols)
	copy(cp.Data, m.Data)
	return cp
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			t.Data[c*t.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
	return t
}

// Mul returns m·n. It panics if the inner dimensions disagree.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %d×%d · %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMatrix(m.Rows, n.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[r*m.Cols+k]
			if a == 0 {
				continue
			}
			for c := 0; c < n.Cols; c++ {
				out.Data[r*out.Cols+c] += a * n.Data[k*n.Cols+c]
			}
		}
	}
	return out
}

// ScaleCols multiplies column j by s[j] in place. len(s) must equal Cols.
func (m *Matrix) ScaleCols(s []float64) {
	if len(s) != m.Cols {
		panic("linalg: ScaleCols length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			m.Data[r*m.Cols+c] *= s[c]
		}
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4f", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CosineRows returns the cosine similarity of rows i and j of m, or 0 if
// either row is zero.
func CosineRows(m *Matrix, i, j int) float64 {
	var dot, ni, nj float64
	ri, rj := m.Data[i*m.Cols:(i+1)*m.Cols], m.Data[j*m.Cols:(j+1)*m.Cols]
	for k := 0; k < m.Cols; k++ {
		dot += ri[k] * rj[k]
		ni += ri[k] * ri[k]
		nj += rj[k] * rj[k]
	}
	if ni == 0 || nj == 0 {
		return 0
	}
	c := dot / math.Sqrt(ni*nj)
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}
