package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// checkQuantBound asserts the contract of QuantizeRows on every row pair
// of m: the quantized cosine is finite, clamped, and within Margin of
// the exact float64 cosine whenever the margin is finite.
func checkQuantBound(t *testing.T, m *Matrix) {
	t.Helper()
	q := QuantizeRows(m)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Rows; j++ {
			est := CosineRowsQ8(q, i, j)
			if math.IsNaN(est) || est < -1 || est > 1 {
				t.Fatalf("CosineRowsQ8(%d,%d) = %v, want a value in [-1,1]", i, j, est)
			}
			margin := q.Margin(i, j)
			if math.IsNaN(margin) || margin < 0 {
				t.Fatalf("Margin(%d,%d) = %v, want a non-negative bound", i, j, margin)
			}
			if math.IsInf(margin, 1) {
				continue // no claim for unquantizable rows
			}
			exact := CosineRows(m, i, j)
			if diff := math.Abs(est - exact); diff > margin {
				t.Fatalf("pair (%d,%d): |q8 %v - exact %v| = %v exceeds margin %v",
					i, j, est, exact, diff, margin)
			}
		}
	}
}

func TestQuantizedRowsBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 2+rng.Intn(30), 1+rng.Intn(16)
		m := NewMatrix(rows, cols)
		for r := 0; r < rows; r++ {
			// Wildly varying per-row magnitudes, including rows that mix
			// a dominant coordinate with near-zero ones — the worst case
			// for symmetric int8 grids.
			mag := math.Pow(10, float64(rng.Intn(121)-60))
			for c := 0; c < cols; c++ {
				m.Data[r*cols+c] = (rng.Float64()*2 - 1) * mag
				if rng.Intn(4) == 0 {
					m.Data[r*cols+c] *= 1e-9
				}
			}
		}
		checkQuantBound(t, m)
	}
}

func TestQuantizedRowsBoundHostile(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	m := fromRows([][]float64{
		{0, 0, 0, 0},                     // zero row
		{1, 2, 3, 4},                     // plain integers
		{-1, -2, -3, -4},                 // negated copy: cosine −1 with row 1
		{tiny, tiny, 0, tiny},            // denormals: scale underflows
		{1e308, -1e308, 1e308, -1e308},   // norms overflow
		{math.Inf(1), 1, 2, 3},           // infinite coordinate
		{math.NaN(), 1, 2, 3},            // NaN coordinate
		{1e-300, 1e-300, 1e-300, 1e-300}, // uniform denormal-adjacent
		{127, 1, 0, 0},                   // exactly representable grid
		{1, 1e-30, 0, 0},                 // dominant coordinate
	})
	checkQuantBound(t, m)

	q := QuantizeRows(m)
	if got := CosineRowsQ8(q, 0, 1); got != 0 {
		t.Fatalf("zero row cosine = %v, want 0", got)
	}
	if got := q.Margin(0, 1); got != 0 {
		t.Fatalf("zero row margin = %v, want 0 (both cosines are exactly 0)", got)
	}
	for _, r := range []int{4, 5, 6} {
		if !math.IsInf(q.Margin(r, 1), 1) {
			t.Fatalf("row %d is unquantizable, want +Inf margin, got %v", r, q.Margin(r, 1))
		}
		if got := CosineRowsQ8(q, r, 1); math.IsNaN(got) || got < -1 || got > 1 {
			t.Fatalf("unquantizable row %d cosine = %v, want a clamped value", r, got)
		}
	}
	// Exactly representable rows round-trip with zero residual, so the
	// estimate matches the exact cosine up to the flat slop.
	if est, exact := CosineRowsQ8(q, 1, 2), CosineRows(m, 1, 2); math.Abs(est-exact) > quantSlop {
		t.Fatalf("integer rows: q8 %v vs exact %v", est, exact)
	}
	if exact := CosineRows(m, 1, 2); exact != -1 {
		t.Fatalf("negated rows exact cosine = %v, want -1", exact)
	}
}

func TestQuantizedRowsMarginMeaningful(t *testing.T) {
	// On well-scaled rows (the LSI embedding case) the proven bound must
	// be small enough to prune with: a few percent, not order one.
	rng := rand.New(rand.NewSource(11))
	m := NewMatrix(40, 10)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	q := QuantizeRows(m)
	worst := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Rows; j++ {
			if mg := q.Margin(i, j); mg > worst {
				worst = mg
			}
		}
	}
	if worst > 0.05 {
		t.Fatalf("worst margin %v on Gaussian rows; too loose to prune with", worst)
	}
}
