package linalg

import (
	"math/rand"
	"testing"
)

func randomSparse(rng *rand.Rand, rows, cols int, density float64) *Sparse {
	var entries []Entry
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				entries = append(entries, Entry{Row: r, Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	return NewSparse(rows, cols, entries)
}

func TestSparseConstructionCanonical(t *testing.T) {
	s := NewSparse(3, 4, []Entry{
		{Row: 2, Col: 1, Val: 5},
		{Row: 0, Col: 3, Val: 1},
		{Row: 0, Col: 0, Val: 2},
		{Row: 2, Col: 1, Val: -2}, // duplicate: summed with the 5
		{Row: 1, Col: 2, Val: 4},
		{Row: 1, Col: 2, Val: -4}, // cancels to zero: dropped
	})
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	d := s.Dense()
	if got := d.At(2, 1); got != 3 {
		t.Errorf("At(2,1) = %v, want 3 (summed duplicate)", got)
	}
	if got := d.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %v, want 0 (cancelled)", got)
	}
	if got := d.At(0, 0); got != 2 {
		t.Errorf("At(0,0) = %v", got)
	}
	// Column indices sorted within each row.
	for r := 0; r < s.Rows; r++ {
		for i := s.RowPtr[r] + 1; i < s.RowPtr[r+1]; i++ {
			if s.ColIdx[i-1] >= s.ColIdx[i] {
				t.Fatalf("row %d columns not strictly increasing: %v", r, s.ColIdx[s.RowPtr[r]:s.RowPtr[r+1]])
			}
		}
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSparse(2, 2, []Entry{{Row: 2, Col: 0, Val: 1}})
}

// sparseFromDense converts a dense matrix, dropping zeros.
func sparseFromDense(m *Matrix) *Sparse {
	var entries []Entry
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if v := m.Data[r*m.Cols+c]; v != 0 {
				entries = append(entries, Entry{Row: r, Col: c, Val: v})
			}
		}
	}
	return NewSparse(m.Rows, m.Cols, entries)
}

func TestSparseDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 7, 5)
	// Punch some zeros in so sparsification actually drops entries.
	for i := 0; i < len(a.Data); i += 3 {
		a.Data[i] = 0
	}
	s := sparseFromDense(a)
	if diff := maxAbsDiff(s.Dense(), a); diff != 0 {
		t.Errorf("round trip diff = %v", diff)
	}
}

func TestSparseMulDenseAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSparse(rng, 8, 10, 0.3)
	b := randomMatrix(rng, 10, 4)
	if diff := maxAbsDiff(s.MulDense(b), s.Dense().Mul(b)); diff > 1e-12 {
		t.Errorf("MulDense diff = %v", diff)
	}
	bt := randomMatrix(rng, 8, 3)
	if diff := maxAbsDiff(s.TMulDense(bt), s.Dense().Transpose().Mul(bt)); diff > 1e-12 {
		t.Errorf("TMulDense diff = %v", diff)
	}
}

func TestSparseMulSparseAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSparse(rng, 6, 9, 0.35)
	b := randomSparse(rng, 9, 7, 0.35)
	got := a.MulSparse(b).Dense()
	want := a.Dense().Mul(b.Dense())
	if diff := maxAbsDiff(got, want); diff > 1e-12 {
		t.Errorf("MulSparse diff = %v", diff)
	}
}

func TestSparseTransposeAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSparse(rng, 5, 11, 0.3)
	if diff := maxAbsDiff(s.Transpose().Dense(), s.Dense().Transpose()); diff != 0 {
		t.Errorf("Transpose diff = %v", diff)
	}
}

func TestSparseDimensionMismatchPanics(t *testing.T) {
	s := NewSparse(2, 3, nil)
	for name, fn := range map[string]func(){
		"MulDense":  func() { s.MulDense(NewMatrix(2, 2)) },
		"TMulDense": func() { s.TMulDense(NewMatrix(3, 2)) },
		"MulSparse": func() { s.MulSparse(NewSparse(2, 2, nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
