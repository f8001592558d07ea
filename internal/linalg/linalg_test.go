package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Errorf("At/Set broken: %v", m.Data)
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 {
		t.Errorf("Transpose = %v", tr)
	}
}

func TestMatrixMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if maxAbsDiff(c, want) > 1e-12 {
		t.Errorf("Mul =\n%v", c)
	}
}

func TestMatrixMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := fromRows([][]float64{{3, 0}, {0, 4}})
	d := ComputeSVD(a)
	if len(d.S) != 2 || math.Abs(d.S[0]-4) > 1e-9 || math.Abs(d.S[1]-3) > 1e-9 {
		t.Errorf("singular values = %v, want [4 3]", d.S)
	}
}

func TestSVDKnownRankOne(t *testing.T) {
	// A = u·vᵀ with |u| = sqrt(5), |v| = sqrt(2): σ1 = sqrt(10), σ2 = 0.
	a := fromRows([][]float64{{1, 1}, {2, 2}})
	d := ComputeSVD(a)
	if math.Abs(d.S[0]-math.Sqrt(10)) > 1e-9 {
		t.Errorf("σ1 = %v, want sqrt(10)", d.S[0])
	}
	if math.Abs(d.S[1]) > 1e-9 {
		t.Errorf("σ2 = %v, want 0", d.S[1])
	}
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", r, len(row), m.Cols))
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// maxAbsDiff returns max |m−n| over all elements of two same-shape
// matrices.
func maxAbsDiff(m, n *Matrix) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("linalg: maxAbsDiff shape mismatch")
	}
	var d float64
	for i := range m.Data {
		if x := math.Abs(m.Data[i] - n.Data[i]); x > d {
			d = x
		}
	}
	return d
}

// reconstruct returns U · diag(S) · Vᵀ.
func reconstruct(d *SVD) *Matrix {
	return d.ScaledU().Mul(d.V.Transpose())
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{4, 4}, {6, 3}, {3, 6}, {10, 2}, {1, 5}, {5, 1}} {
		a := randomMatrix(rng, dims[0], dims[1])
		d := ComputeSVD(a)
		if diff := maxAbsDiff(reconstruct(d), a); diff > 1e-8 {
			t.Errorf("%dx%d: reconstruction error %g", dims[0], dims[1], diff)
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 8, 5)
	d := ComputeSVD(a)
	utu := d.U.Transpose().Mul(d.U)
	vtv := d.V.Transpose().Mul(d.V)
	for _, m := range []*Matrix{utu, vtv} {
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				want := 0.0
				if r == c {
					want = 1.0
				}
				if math.Abs(m.At(r, c)-want) > 1e-8 {
					t.Fatalf("factor not orthonormal at (%d,%d): %v", r, c, m.At(r, c))
				}
			}
		}
	}
}

func TestSVDSingularValuesSortedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(8)
		cols := 2 + rng.Intn(8)
		d := ComputeSVD(randomMatrix(rng, rows, cols))
		for i := 1; i < len(d.S); i++ {
			if d.S[i] > d.S[i-1]+1e-12 {
				return false
			}
			if d.S[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSVDTruncateIsBestRankK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 6, 6)
	full := ComputeSVD(a)
	k := 3
	trunc := full.Truncate(k)
	if trunc.Rank() != k {
		t.Fatalf("rank = %d", trunc.Rank())
	}
	// Frobenius error of best rank-k approximation = sqrt(Σ σ_i² for i>k).
	var wantSq float64
	for _, s := range full.S[k:] {
		wantSq += s * s
	}
	diff := reconstruct(trunc)
	var gotSq float64
	for i := range diff.Data {
		d := diff.Data[i] - a.Data[i]
		gotSq += d * d
	}
	if math.Abs(gotSq-wantSq) > 1e-8 {
		t.Errorf("rank-%d error² = %v, want %v", k, gotSq, wantSq)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	d := ComputeSVD(NewMatrix(3, 2))
	for _, s := range d.S {
		if s != 0 {
			t.Errorf("zero matrix σ = %v", d.S)
		}
	}
	if diff := maxAbsDiff(reconstruct(d), NewMatrix(3, 2)); diff != 0 {
		t.Errorf("zero reconstruction diff = %v", diff)
	}
}

// TestJacobiConvergesOnRankDeficientInput feeds Jacobi the shape LSI
// produces: a binary occurrence matrix whose rows repeat (12 distinct
// rows, each 3 times), and its rank-12 Gram matrix. Both leave columns
// that are numerically zero once the rank is exhausted; those must stop
// rotating, or every decomposition of such a matrix runs to the sweep
// cap.
func TestJacobiConvergesOnRankDeficientInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(36, 90)
	for d := 0; d < 12; d++ {
		row := make([]float64, a.Cols)
		for c := range row {
			if rng.Float64() < 0.2 {
				row[c] = 1
			}
		}
		for r := 0; r < 3; r++ {
			copy(a.Data[(3*d+r)*a.Cols:], row)
		}
	}
	sp := sparseFromDense(a)
	for _, tc := range []struct {
		name string
		m    *Matrix
	}{
		{"dense", a.Transpose()},
		{"gram", sp.MulSparse(sp.Transpose()).Dense()},
	} {
		u, s, v, sweeps := jacobiSVD(tc.m)
		if sweeps >= maxJacobiSweeps {
			t.Errorf("%s: Jacobi ran %d sweeps, the cap", tc.name, sweeps)
		}
		d := &SVD{U: u, S: s, V: v}
		if diff := maxAbsDiff(reconstruct(d), tc.m); diff > 1e-9 {
			t.Errorf("%s: reconstruction diff = %v", tc.name, diff)
		}
	}
	dense, gram := ComputeSVD(a), GramSVD(sp, 12)
	for i := 0; i < 12; i++ {
		if diff := math.Abs(dense.S[i] - gram.S[i]); diff > 1e-9*dense.S[0] {
			t.Errorf("σ%d: dense %v, Gram %v", i, dense.S[i], gram.S[i])
		}
	}
}

func TestSVDEmptyMatrix(t *testing.T) {
	d := ComputeSVD(NewMatrix(0, 0))
	if d.Rank() != 0 {
		t.Errorf("rank = %d", d.Rank())
	}
}

func TestScaledU(t *testing.T) {
	a := fromRows([][]float64{{2, 0}, {0, 1}})
	d := ComputeSVD(a)
	us := d.ScaledU()
	rec := us.Mul(d.V.Transpose())
	if maxAbsDiff(rec, a) > 1e-9 {
		t.Errorf("ScaledU·Vᵀ ≠ A:\n%v", rec)
	}
}

func TestCosineRows(t *testing.T) {
	m := fromRows([][]float64{{1, 0}, {0, 1}, {2, 0}, {0, 0}})
	if c := CosineRows(m, 0, 2); math.Abs(c-1) > 1e-12 {
		t.Errorf("parallel rows cosine = %v", c)
	}
	if c := CosineRows(m, 0, 1); math.Abs(c) > 1e-12 {
		t.Errorf("orthogonal rows cosine = %v", c)
	}
	if c := CosineRows(m, 0, 3); c != 0 {
		t.Errorf("zero row cosine = %v", c)
	}
}

func TestTruncatedSVDHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 5, 4)
	d := TruncatedSVD(a, 2)
	if d.Rank() != 2 {
		t.Errorf("rank = %d", d.Rank())
	}
	if d2 := TruncatedSVD(a, 100); d2.Rank() != 4 {
		t.Errorf("over-truncate rank = %d", d2.Rank())
	}
}
