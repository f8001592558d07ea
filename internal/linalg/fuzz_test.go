package linalg

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantizedRows hammers the int8 quantization round trip with
// arbitrary bit patterns (including NaN, infinities, denormals, and
// mixed magnitudes): quantization must never panic, the estimate must
// stay clamped, and whenever Margin claims a finite bound the estimate
// must actually be within it of the exact float64 cosine.
func FuzzQuantizedRows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		if len(vals) == 0 {
			return
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		cols := 1 + len(vals)%8
		rows := len(vals) / cols
		if rows < 2 {
			rows, cols = len(vals), 1
		}
		m := &Matrix{Rows: rows, Cols: cols, Data: vals[:rows*cols]}
		q := QuantizeRows(m)
		for i := 0; i < rows; i++ {
			for j := 0; j < rows; j++ {
				est := CosineRowsQ8(q, i, j)
				if math.IsNaN(est) || est < -1 || est > 1 {
					t.Fatalf("CosineRowsQ8(%d,%d) = %v out of range", i, j, est)
				}
				margin := q.Margin(i, j)
				if math.IsNaN(margin) || margin < 0 {
					t.Fatalf("Margin(%d,%d) = %v", i, j, margin)
				}
				if math.IsInf(margin, 1) {
					continue
				}
				exact := CosineRows(m, i, j)
				if diff := math.Abs(est - exact); diff > margin {
					t.Fatalf("pair (%d,%d): |%v - %v| = %v > margin %v",
						i, j, est, exact, diff, margin)
				}
			}
		}
	})
}
