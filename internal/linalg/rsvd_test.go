package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// gappedMatrix builds A = U·diag(spec)·Vᵀ with random orthonormal
// factors, so the spectrum — and in particular the gap that makes top-k
// subspaces well-defined — is exactly controlled.
func gappedMatrix(rng *rand.Rand, m, n int, spec []float64) *Matrix {
	u := randomMatrix(rng, m, len(spec))
	orthonormalize(u)
	v := randomMatrix(rng, n, len(spec))
	orthonormalize(v)
	u.ScaleCols(spec)
	return u.Mul(v.Transpose())
}

// subspaceSin returns the sine of the largest principal angle between
// the column spans of a and b (same shape, orthonormal columns):
// σ_max((I − a·aᵀ)·b).
func subspaceSin(a, b *Matrix) float64 {
	proj := a.Transpose().Mul(b) // k×k
	m := b.Clone()
	correction := a.Mul(proj)
	for i := range m.Data {
		m.Data[i] -= correction.Data[i]
	}
	d := ComputeSVD(m)
	if len(d.S) == 0 {
		return 0
	}
	return d.S[0]
}

func TestRandomizedSVDSingularValuesMatchJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		rows, cols int
		density    float64
		k          int
	}{
		{60, 40, 1.0, 8},
		{40, 90, 1.0, 6},
		{120, 80, 0.08, 10},
		{70, 150, 0.05, 5},
	} {
		var sp *Sparse
		if tc.density >= 1 {
			sp = sparseFromDense(randomMatrix(rng, tc.rows, tc.cols))
		} else {
			sp = randomSparse(rng, tc.rows, tc.cols, tc.density)
		}
		exact := ComputeSVD(sp.Dense())
		fast := RandomizedSVD(sp, tc.k)
		if fast.Rank() != tc.k {
			t.Fatalf("%dx%d: rank = %d, want %d", tc.rows, tc.cols, fast.Rank(), tc.k)
		}
		for i := 0; i < tc.k; i++ {
			if diff := math.Abs(fast.S[i] - exact.S[i]); diff > 1e-6 {
				t.Errorf("%dx%d density=%.2f: σ%d = %.12f, exact %.12f (diff %g)",
					tc.rows, tc.cols, tc.density, i, fast.S[i], exact.S[i], diff)
			}
		}
	}
}

func TestRandomizedSVDSubspaceAnglesMatchJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// Spectra with a definite gap at the truncation rank keep the top-k
	// subspace well-conditioned, so the angle comparison is meaningful.
	spec := []float64{12, 10, 9, 7.5, 6, 2, 1.5, 1, 0.7, 0.4, 0.2, 0.1}
	const k = 5
	for _, dims := range [][2]int{{80, 50}, {50, 130}} {
		a := gappedMatrix(rng, dims[0], dims[1], spec)
		sp := sparseFromDense(a)
		exact := ComputeSVD(a).Truncate(k)
		fast := RandomizedSVD(sp, k)
		if sinU := subspaceSin(exact.U, fast.U); sinU > 1e-6 {
			t.Errorf("%v: left subspace angle sin = %g", dims, sinU)
		}
		if sinV := subspaceSin(exact.V, fast.V); sinV > 1e-6 {
			t.Errorf("%v: right subspace angle sin = %g", dims, sinV)
		}
	}
}

func TestRandomizedSVDSparseSubspaceAngles(t *testing.T) {
	// On a generic random sparse matrix the gap location is not chosen by
	// us, so find a k with a healthy relative gap and compare there.
	rng := rand.New(rand.NewSource(44))
	sp := randomSparse(rng, 90, 120, 0.07)
	exact := ComputeSVD(sp.Dense())
	k := -1
	for i := 2; i < 12; i++ {
		if exact.S[i] > 0 && exact.S[i]/exact.S[i-1] < 0.9 {
			k = i
			break
		}
	}
	if k < 0 {
		k = 6 // no strong gap in the scan window; angles still converge via iteration
	}
	fast := RandomizedSVD(sp, k)
	tr := exact.Truncate(k)
	if sinU := subspaceSin(tr.U, fast.U); sinU > 1e-6 {
		t.Errorf("k=%d: left subspace angle sin = %g", k, sinU)
	}
	if sinV := subspaceSin(tr.V, fast.V); sinV > 1e-6 {
		t.Errorf("k=%d: right subspace angle sin = %g", k, sinV)
	}
	for i := 0; i < k; i++ {
		if diff := math.Abs(fast.S[i] - exact.S[i]); diff > 1e-6 {
			t.Errorf("σ%d diff = %g", i, diff)
		}
	}
}

func TestRandomizedSVDNearOptimalReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	sp := randomSparse(rng, 100, 70, 0.1)
	const k = 8
	exact := ComputeSVD(sp.Dense())
	var bestSq float64
	for _, s := range exact.S[k:] {
		bestSq += s * s
	}
	rec := reconstruct(RandomizedSVD(sp, k))
	a := sp.Dense()
	var gotSq float64
	for i := range rec.Data {
		d := rec.Data[i] - a.Data[i]
		gotSq += d * d
	}
	if gotSq > bestSq+1e-6 {
		t.Errorf("rank-%d error² = %v, optimum %v", k, gotSq, bestSq)
	}
}

func TestRandomizedSVDDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	sp := randomSparse(rng, 80, 60, 0.1)
	a := RandomizedSVD(sp, 7)
	b := RandomizedSVD(sp, 7)
	for i := range a.S {
		if a.S[i] != b.S[i] {
			t.Fatalf("σ%d differs across runs: %v vs %v", i, a.S[i], b.S[i])
		}
	}
	if maxAbsDiff(a.U, b.U) != 0 || maxAbsDiff(a.V, b.V) != 0 {
		t.Fatal("factors differ across runs with the same seed")
	}
	c := randomizedSVD(sp, 7, 99)
	for i := range a.S {
		if diff := math.Abs(a.S[i] - c.S[i]); diff > 1e-6 {
			t.Errorf("σ%d unstable across seeds: diff %g", i, diff)
		}
	}
}

func TestRandomizedSVDFactorOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sp := randomSparse(rng, 60, 100, 0.1)
	d := RandomizedSVD(sp, 6)
	for name, f := range map[string]*Matrix{"U": d.U, "V": d.V} {
		g := f.Transpose().Mul(f)
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				want := 0.0
				if r == c {
					want = 1.0
				}
				if math.Abs(g.At(r, c)-want) > 1e-9 {
					t.Fatalf("%sᵀ%s (%d,%d) = %v", name, name, r, c, g.At(r, c))
				}
			}
		}
	}
}

func TestSparseTruncatedSVDTinyFallsBackToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	dense := randomMatrix(rng, 12, 9) // 108 cells — well under the cutoff
	sp := sparseFromDense(dense)
	got := SparseTruncatedSVD(sp, 4)
	want := TruncatedSVD(dense, 4)
	if maxAbsDiff(got.U, want.U) != 0 || maxAbsDiff(got.V, want.V) != 0 {
		t.Error("tiny input did not take the exact Jacobi path")
	}
	for i := range want.S {
		if got.S[i] != want.S[i] {
			t.Fatalf("σ%d = %v, want %v", i, got.S[i], want.S[i])
		}
	}
}

func TestRandomizedSVDDegenerateInputs(t *testing.T) {
	if d := RandomizedSVD(NewSparse(0, 5, nil), 3); d.Rank() != 0 {
		t.Errorf("empty rows rank = %d", d.Rank())
	}
	if d := RandomizedSVD(NewSparse(40, 200, nil), 3); d.Rank() != 3 {
		t.Errorf("zero matrix rank = %d", d.Rank())
	} else {
		for _, s := range d.S {
			if s != 0 {
				t.Errorf("zero matrix σ = %v", d.S)
			}
		}
	}
	// k above min dimension clamps.
	rng := rand.New(rand.NewSource(99))
	sp := randomSparse(rng, 100, 50, 0.1)
	if d := RandomizedSVD(sp, 500); d.Rank() != 50 {
		t.Errorf("over-truncate rank = %d", d.Rank())
	}
}
