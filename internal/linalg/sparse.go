package linalg

import (
	"fmt"
	"sort"
)

// Entry is one explicit coordinate of a sparse matrix under construction.
type Entry struct {
	Row, Col int
	Val      float64
}

// Sparse is a compressed-sparse-row (CSR) matrix. Column indices are
// strictly increasing within each row and duplicate coordinates have been
// summed, so the representation is canonical. LSI occurrence matrices —
// overwhelmingly zero at dump scale — are stored and multiplied in this
// form; the dense code path only ever sees the small factors.
type Sparse struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1; row r occupies [RowPtr[r], RowPtr[r+1])
	ColIdx     []int // len NNZ(), sorted within each row
	Val        []float64
}

// NewSparse builds a CSR matrix from coordinate entries. Entries may
// arrive in any order; duplicates are summed, explicit zeros dropped. It
// panics on negative dimensions or out-of-range coordinates.
func NewSparse(rows, cols int, entries []Entry) *Sparse {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", rows, cols))
	}
	es := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("linalg: entry (%d,%d) outside %d×%d", e.Row, e.Col, rows, cols))
		}
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	s := &Sparse{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(es); {
		j := i
		var sum float64
		for ; j < len(es) && es[j].Row == es[i].Row && es[j].Col == es[i].Col; j++ {
			sum += es[j].Val
		}
		if sum != 0 {
			s.ColIdx = append(s.ColIdx, es[i].Col)
			s.Val = append(s.Val, sum)
			s.RowPtr[es[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		s.RowPtr[r+1] += s.RowPtr[r]
	}
	return s
}

// NNZ returns the number of stored (nonzero) entries.
func (s *Sparse) NNZ() int { return len(s.Val) }

// Dense materializes the matrix.
func (s *Sparse) Dense() *Matrix {
	m := NewMatrix(s.Rows, s.Cols)
	for r := 0; r < s.Rows; r++ {
		for i := s.RowPtr[r]; i < s.RowPtr[r+1]; i++ {
			m.Data[r*s.Cols+s.ColIdx[i]] = s.Val[i]
		}
	}
	return m
}

// MulDense returns A·B for dense B (Cols×k), in O(nnz·k).
func (s *Sparse) MulDense(b *Matrix) *Matrix {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %d×%d · %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(s.Rows, b.Cols)
	k := b.Cols
	for r := 0; r < s.Rows; r++ {
		dst := out.Data[r*k : (r+1)*k]
		for i := s.RowPtr[r]; i < s.RowPtr[r+1]; i++ {
			v := s.Val[i]
			src := b.Data[s.ColIdx[i]*k : (s.ColIdx[i]+1)*k]
			for c := 0; c < k; c++ {
				dst[c] += v * src[c]
			}
		}
	}
	return out
}

// TMulDense returns Aᵀ·B for dense B (Rows×k), in O(nnz·k) without
// materializing the transpose.
func (s *Sparse) TMulDense(b *Matrix) *Matrix {
	if s.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %d×%d ᵀ· %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(s.Cols, b.Cols)
	k := b.Cols
	for r := 0; r < s.Rows; r++ {
		src := b.Data[r*k : (r+1)*k]
		for i := s.RowPtr[r]; i < s.RowPtr[r+1]; i++ {
			v := s.Val[i]
			dst := out.Data[s.ColIdx[i]*k : (s.ColIdx[i]+1)*k]
			for c := 0; c < k; c++ {
				dst[c] += v * src[c]
			}
		}
	}
	return out
}

// MulSparse returns A·B for sparse B, using the classic row-by-row
// SpGEMM with a dense accumulator per output row.
func (s *Sparse) MulSparse(b *Sparse) *Sparse {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %d×%d · %d×%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	out := &Sparse{Rows: s.Rows, Cols: b.Cols, RowPtr: make([]int, s.Rows+1)}
	acc := make([]float64, b.Cols)
	touched := make([]int, 0, b.Cols)
	seen := make([]bool, b.Cols)
	for r := 0; r < s.Rows; r++ {
		touched = touched[:0]
		for i := s.RowPtr[r]; i < s.RowPtr[r+1]; i++ {
			v, mid := s.Val[i], s.ColIdx[i]
			for j := b.RowPtr[mid]; j < b.RowPtr[mid+1]; j++ {
				c := b.ColIdx[j]
				if !seen[c] {
					seen[c] = true
					touched = append(touched, c)
				}
				acc[c] += v * b.Val[j]
			}
		}
		sort.Ints(touched)
		for _, c := range touched {
			if acc[c] != 0 {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, acc[c])
			}
			acc[c] = 0
			seen[c] = false
		}
		out.RowPtr[r+1] = len(out.Val)
	}
	return out
}

// Transpose returns Aᵀ in CSR form.
func (s *Sparse) Transpose() *Sparse {
	t := &Sparse{
		Rows: s.Cols, Cols: s.Rows,
		RowPtr: make([]int, s.Cols+1),
		ColIdx: make([]int, s.NNZ()),
		Val:    make([]float64, s.NNZ()),
	}
	for _, c := range s.ColIdx {
		t.RowPtr[c+1]++
	}
	for r := 0; r < t.Rows; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	next := append([]int(nil), t.RowPtr[:t.Rows]...)
	for r := 0; r < s.Rows; r++ {
		for i := s.RowPtr[r]; i < s.RowPtr[r+1]; i++ {
			c := s.ColIdx[i]
			t.ColIdx[next[c]] = r
			t.Val[next[c]] = s.Val[i]
			next[c]++
		}
	}
	return t
}
