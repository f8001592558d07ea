package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/linalg"
)

// tinyV2 holds the bytes of Write(tinySnapshot()) in format v2.
const tinyV2 = "testdata/tiny-v2.wmsnap"

// TestSnapshotBytesStable pins the v2 byte layout: today's writer must
// reproduce the checked-in file exactly, and the reader must accept it.
// A failure here means the format changed and Version must bump.
func TestSnapshotBytesStable(t *testing.T) {
	want, err := os.ReadFile(tinyV2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tinySnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Write produced %d bytes that differ from %s (%d bytes)", buf.Len(), tinyV2, len(want))
	}
	if _, err := Read(bytes.NewReader(want)); err != nil {
		t.Fatalf("Read(%s): %v", tinyV2, err)
	}
}

// roundTripEmbedding encodes m with the embedding codec, decodes it back
// and requires the same shape and every entry's exact bit pattern.
func roundTripEmbedding(t *testing.T, m *linalg.Matrix) {
	t.Helper()
	var e encoder
	e.embedding(m)
	d := decoder{buf: e.buf}
	got := d.embedding()
	if err := d.finish(); err != nil {
		t.Fatalf("%d×%d: %v", m.Rows, m.Cols, err)
	}
	if got.Rows != m.Rows || got.Cols != m.Cols {
		t.Fatalf("shape %d×%d != %d×%d", got.Rows, got.Cols, m.Rows, m.Cols)
	}
	for i := range m.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
			t.Fatalf("Data[%d]: %x != %x", i, got.Data[i], m.Data[i])
		}
	}
}

// TestEmbeddingRoundTrip requires the embedding codec to return every
// entry's exact bit pattern, signed zeros and infinities included.
func TestEmbeddingRoundTrip(t *testing.T) {
	m := linalg.NewMatrix(3, 4)
	for i := range m.Data {
		m.Data[i] = math.Sqrt(float64(i)) * math.Pi
	}
	m.Data[5] = math.Copysign(0, -1)
	m.Data[7] = math.Inf(1)
	roundTripEmbedding(t, m)
}

// TestEmbeddingEmpty requires the embedding codec to keep the shape of
// matrices with no entries.
func TestEmbeddingEmpty(t *testing.T) {
	for _, m := range []*linalg.Matrix{linalg.NewMatrix(0, 0), linalg.NewMatrix(5, 0), linalg.NewMatrix(0, 7)} {
		roundTripEmbedding(t, m)
	}
}

// TestEmbeddingCorrupt swaps the LSI embedding blob of a valid type
// section for malformed ones; each must surface from Read as a
// CorruptError, never as a panic, a huge allocation or a snapshot.
func TestEmbeddingCorrupt(t *testing.T) {
	snap := tinySnapshot()
	payload := encodeType(&snap.Types[0])
	var blob encoder
	blob.embedding(snap.Types[0].LSI.Embedding())
	at := bytes.Index(payload, blob.buf)
	if at < 0 {
		t.Fatal("embedding blob not found in the type payload")
	}
	// embedding returns the blob content: a rows×cols header and the
	// given number of f64 entries, then any extra bytes.
	embedding := func(rows, cols uint64, entries int, extra ...byte) []byte {
		b := binary.AppendUvarint(nil, rows)
		b = binary.AppendUvarint(b, cols)
		b = append(b, make([]byte, 8*entries)...)
		return append(b, extra...)
	}
	for _, tc := range []struct {
		name  string
		inner []byte
	}{
		{"truncated", embedding(2, 1, 1)},
		{"oversized", embedding(1<<40, 1<<40, 2)},
		{"oversized cols", embedding(1, 1<<61, 2)},
		{"trailing bytes", embedding(2, 1, 2, 0)},
		{"rows not attrs", embedding(3, 1, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e encoder
			e.blob(tc.inner)
			bad := append(append(append([]byte(nil), payload[:at]...), e.buf...), payload[at+len(blob.buf):]...)
			if got, err := decodeType(bad); err == nil || got != nil {
				t.Fatalf("decodeType = %v, %v; want nil and an error", got, err)
			}

			var raw bytes.Buffer
			if err := Write(&raw, snap); err != nil {
				t.Fatal(err)
			}
			fingerprint, createdAt, sections, err := readContainer(&raw)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sections {
				if sections[i].kind == kindType {
					sections[i].payload = bad
				}
			}
			var out bytes.Buffer
			if err := writeContainer(&out, fingerprint, createdAt, sections); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&out)
			var ce *CorruptError
			if !errors.As(err, &ce) || got != nil {
				t.Fatalf("Read = %v, %v; want a CorruptError", got, err)
			}
		})
	}
}
