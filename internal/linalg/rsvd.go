package linalg

import (
	"math"
	"math/rand"
)

// Tuning of the randomized truncated SVD.
const (
	// rsvdOversample is the number of extra sketch columns beyond the
	// target rank (Halko/Martinsson/Tropp's p).
	rsvdOversample = 8
	// rsvdMaxIter caps the subspace (power) iterations. The iteration
	// normally stops earlier via rsvdTol, and each iteration costs only
	// O(nnz(G)·(k+p)) on the small-side Gram operator.
	rsvdMaxIter = 250
	// rsvdTol stops the iteration once the top-k Ritz eigenvalues of the
	// projected operator — invariant under rotations of the sketch basis
	// and monotonically increasing — change by less than this relative
	// amount. Ritz values are quadratically accurate in the subspace
	// error, so 1e-13 leaves the subspace converged to well under 1e-6.
	rsvdTol = 1e-13
	// rsvdSeed drives the Gaussian sketch; the decomposition is fully
	// deterministic.
	rsvdSeed = 1
)

// exactSVDCutoff is the size (Rows·Cols) below which SparseTruncatedSVD
// runs the exact dense Jacobi on the matrix itself: at that scale Jacobi
// is fast, and the sketch would hold most of the matrix anyway.
const exactSVDCutoff = 4096

// gramExactCutoff is the small-side dimension up to which the exact
// Gram-eigendecomposition path is used instead of the randomized
// iteration: one Jacobi sweep on an s×s dense Gram matrix costs O(s⁴)
// overall, so it wins below roughly a hundred rows and loses after.
const gramExactCutoff = 80

// SparseTruncatedSVD computes the rank-k truncated SVD of a sparse
// matrix, routing by shape: exact dense Jacobi for tiny matrices, the
// exact small-side Gram eigendecomposition while the small dimension
// stays modest, and the randomized sketch-and-iterate path beyond that.
// All three touch only stored nonzeros of large inputs.
func SparseTruncatedSVD(a *Sparse, k int) *SVD {
	switch routeFor(a, k) {
	case routeDense:
		return TruncatedSVD(a.Dense(), k)
	case routeGram:
		return GramSVD(a, k)
	default:
		return RandomizedSVD(a, k)
	}
}

type svdRoute int

const (
	routeDense svdRoute = iota
	routeGram
	routeRandomized
)

// routeFor picks the decomposition path by shape.
func routeFor(a *Sparse, k int) svdRoute {
	minDim := a.Rows
	if a.Cols < minDim {
		minDim = a.Cols
	}
	if a.Rows*a.Cols <= exactSVDCutoff {
		return routeDense
	}
	// A short small side routes to the Gram path even when it is under
	// the sketch width: a 15×50000 matrix must not be densified just
	// because 15 ≤ k+p — the 15×15 Gram eigensolve handles it in
	// O(nnz·deg).
	if minDim <= gramExactCutoff || minDim <= k+rsvdOversample {
		return routeGram
	}
	return routeRandomized
}

// RoutesToRandomized reports whether SparseTruncatedSVD would take the
// randomized path for this matrix and rank — exposed so tests that
// claim to validate the randomized path can assert it actually runs.
func RoutesToRandomized(a *Sparse, k int) bool {
	return routeFor(a, k) == routeRandomized
}

// GramSVD computes the rank-k truncated SVD exactly through the
// small-side Gram matrix: G = A·Aᵀ (or Aᵀ·A, whichever is smaller) is
// assembled by sparse mat-mat product, its dense eigendecomposition is
// the one-sided Jacobi of a symmetric PSD matrix, σ = √λ, and the
// long-side factor is recovered with a single sparse multiplication.
// Cost is O(nnz·deg + s³ + nnz·k) for small side s — independent of the
// long dimension, like the randomized path, but with no iteration and
// accuracy limited only by the squared condition number.
func GramSVD(a *Sparse, k int) *SVD {
	k = clampRank(a, k)
	if a.Rows == 0 || a.Cols == 0 || k == 0 {
		return &SVD{U: NewMatrix(a.Rows, 0), S: nil, V: NewMatrix(a.Cols, 0)}
	}
	work, workT, tall := orientSmallSide(a)
	g := work.MulSparse(workT)
	eig := ComputeSVD(g.Dense()) // symmetric PSD: SVD = W·Λ·Wᵀ
	return assembleFromSmallSide(work, tall, eig.V.Truncate(k), eig.S[:k])
}

// orientSmallSide returns (work, workᵀ, tall) with work.Rows ≤ work.Cols,
// reusing a itself as the transpose of its transpose so only one CSR
// copy is ever built.
func orientSmallSide(a *Sparse) (work, workT *Sparse, tall bool) {
	if a.Rows > a.Cols {
		return a.Transpose(), a, true
	}
	return a, a.Transpose(), false
}

// RandomizedSVD computes a rank-k truncated SVD of a by randomized
// subspace iteration (Halko, Martinsson & Tropp, SIAM Rev. 2011): a
// Gaussian sketch of the small-side Gram operator G (= A·Aᵀ or Aᵀ·A,
// whichever is smaller, built once by sparse mat-mat product) is refined
// by power iterations with re-orthonormalization until the invariant
// Ritz estimates stabilize; the projected l×l problem is then solved
// exactly with the existing one-sided Jacobi, and the long-side factor
// is recovered with a single sparse multiplication. Per-iteration cost
// is O(nnz(G)·(k+p)) plus a thin QR on the small side — independent of
// the long dimension, and the full matrix is never densified.
func RandomizedSVD(a *Sparse, k int) *SVD {
	return randomizedSVD(a, k, rsvdSeed)
}

// randomizedSVD is RandomizedSVD with the sketch drawn from seed.
func randomizedSVD(a *Sparse, k int, seed int64) *SVD {
	k = clampRank(a, k)
	if a.Rows == 0 || a.Cols == 0 || k == 0 {
		return &SVD{U: NewMatrix(a.Rows, 0), S: nil, V: NewMatrix(a.Cols, 0)}
	}

	// Orient so the iteration lives on the smaller side.
	work, workT, tall := orientSmallSide(a)
	small := work.Rows
	g := work.MulSparse(workT) // small×small, symmetric PSD

	l := k + rsvdOversample
	if l > small {
		l = small
	}

	// Gaussian sketch of G's range.
	rng := rand.New(rand.NewSource(seed))
	q := NewMatrix(small, l)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
	}
	q = g.MulDense(q)
	orthonormalize(q)

	// Power iteration on G with QR between applications; each step
	// squares the singular value contrast. Convergence is judged on the
	// top-k Ritz eigenvalues of H = Qᵀ·G·Q: they are invariant under
	// rotations of Q's columns (per-column norms never settle when G has
	// the degenerate eigenvalue clusters binary occurrence matrices
	// produce) and blind to the oversampled tail directions, which sit in
	// the slowly-mixing bulk spectrum and wander forever. The l×l
	// eigensolve is amortized by checking every few iterations.
	const checkEvery = 5
	var prev []float64
	for it := 0; it < rsvdMaxIter; it++ {
		gq := g.MulDense(q)
		var h *Matrix
		if (it+1)%checkEvery == 0 {
			h = q.Transpose().Mul(gq)
		}
		orthonormalize(gq)
		q = gq
		if h != nil {
			est := ComputeSVD(h).S
			if ritzConverged(est, prev, k, rsvdTol) {
				break
			}
			prev = append(prev[:0], est...)
		}
	}

	// Rayleigh–Ritz on the converged basis: H = Qᵀ·G·Q is l×l symmetric
	// PSD, so its one-sided Jacobi SVD is its eigendecomposition
	// H = W·Λ·Wᵀ; the Ritz vectors Q·W approximate the small-side
	// singular vectors and σ = √λ.
	h := q.Transpose().Mul(g.MulDense(q))
	eig := ComputeSVD(h)
	return assembleFromSmallSide(work, tall, q.Mul(eig.V).Truncate(k), eig.S[:k])
}

// clampRank bounds k to [0, min(Rows, Cols)].
func clampRank(a *Sparse, k int) int {
	if k < 0 {
		k = 0
	}
	if k > a.Rows {
		k = a.Rows
	}
	if k > a.Cols {
		k = a.Cols
	}
	return k
}

// Truncate keeps the first k columns of m (all of them if k ≥ Cols;
// negative k clamps to 0).
func (m *Matrix) Truncate(k int) *Matrix {
	if k >= m.Cols {
		return m
	}
	if k < 0 {
		k = 0
	}
	out := NewMatrix(m.Rows, k)
	for r := 0; r < m.Rows; r++ {
		copy(out.Data[r*k:(r+1)*k], m.Data[r*m.Cols:r*m.Cols+k])
	}
	return out
}

// assembleFromSmallSide finishes a Gram-side decomposition: uSmall holds
// the top-k eigenvectors of work·workᵀ (work = a or aᵀ, small side
// first), lambda the matching eigenvalues λ = σ². The long-side factor
// is workᵀ·u/σ — a single pass over the stored nonzeros.
func assembleFromSmallSide(work *Sparse, tall bool, uSmall *Matrix, lambda []float64) *SVD {
	s := make([]float64, len(lambda))
	for i, lam := range lambda {
		if lam > 0 {
			s[i] = math.Sqrt(lam)
		}
	}
	long := work.TMulDense(uSmall)
	for c, sv := range s {
		inv := 0.0
		if sv > 0 {
			inv = 1 / sv
		}
		for r := 0; r < long.Rows; r++ {
			long.Data[r*long.Cols+c] *= inv
		}
	}
	if tall {
		return &SVD{U: long, S: s, V: uSmall}
	}
	return &SVD{U: uSmall, S: s, V: long}
}

// orthonormalize replaces m's columns with an orthonormal basis of their
// span via twice-iterated modified Gram–Schmidt (numerically equivalent
// to Householder thin QR at these sizes). Columns that become numerically
// zero — a rank-deficient sketch — are left as zero vectors. The work
// happens on a column-major scratch copy so the inner dot/axpy loops run
// over contiguous memory; this QR sits inside the subspace iteration and
// dominates its constant factor.
func orthonormalize(m *Matrix) {
	rows, cols := m.Rows, m.Cols
	// scratch[j*rows:(j+1)*rows] is column j, contiguous.
	scratch := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		base := r * cols
		for j := 0; j < cols; j++ {
			scratch[j*rows+r] = m.Data[base+j]
		}
	}
	for j := 0; j < cols; j++ {
		col := scratch[j*rows : (j+1)*rows]
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < j; p++ {
				prev := scratch[p*rows : (p+1)*rows]
				var dot float64
				for r := 0; r < rows; r++ {
					dot += col[r] * prev[r]
				}
				if dot == 0 {
					continue
				}
				for r := 0; r < rows; r++ {
					col[r] -= dot * prev[r]
				}
			}
		}
		var norm float64
		for r := 0; r < rows; r++ {
			norm += col[r] * col[r]
		}
		norm = math.Sqrt(norm)
		if norm <= 1e-300 {
			for r := 0; r < rows; r++ {
				col[r] = 0
			}
			continue
		}
		for r := 0; r < rows; r++ {
			col[r] /= norm
		}
	}
	for r := 0; r < rows; r++ {
		base := r * cols
		for j := 0; j < cols; j++ {
			m.Data[base+j] = scratch[j*rows+r]
		}
	}
}

// ritzConverged reports whether the top-k Ritz eigenvalue estimates
// moved by less than tol relative to the largest one.
func ritzConverged(est, prev []float64, k int, tol float64) bool {
	if len(prev) == 0 {
		return false
	}
	if k > len(est) {
		k = len(est)
	}
	if k > len(prev) {
		k = len(prev)
	}
	scale := est[0]
	if prev[0] > scale {
		scale = prev[0]
	}
	if scale == 0 {
		return true
	}
	for i := 0; i < k; i++ {
		if math.Abs(est[i]-prev[i]) > tol*scale {
			return false
		}
	}
	return true
}
