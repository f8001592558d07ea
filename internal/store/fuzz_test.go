package store

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/linalg"
	"repro/internal/lsi"
	"repro/internal/sim"
	"repro/internal/text"
	"repro/internal/wiki"
)

// tinySnapshot hand-builds the smallest meaningful snapshot — one pair
// with a dictionary, one type with a two-attribute workspace and a rank-1
// LSI model — without touching the corpus pipeline, so the fuzz seed
// corpus stays a few hundred bytes.
func tinySnapshot() *Snapshot {
	attrs := []sim.Attr{
		{Lang: wiki.Portuguese, Name: "direcao"},
		{Lang: wiki.English, Name: "directed by"},
	}
	td := sim.FromSnapshot(&sim.Snapshot{
		Pair:  wiki.PtEn,
		TypeA: "filme", TypeB: "film",
		Attrs:       attrs,
		Display:     []string{"Direção", "Directed by"},
		DualsA:      [][]int{{0}},
		DualsB:      [][]int{{1}},
		ValueVec:    []text.TF{{"spielberg": 1}, {"spielberg": 1}},
		TransVec:    []text.TF{{"spielberg": 1}, nil},
		LinkVec:     []text.TF{{"steven spielberg": 1}, {"steven spielberg": 1}},
		RawVec:      []text.TF{{"spielberg": 1}, {"spielberg": 1}},
		RawTransVec: []text.TF{{"spielberg": 1}, nil},
		Occ:         []int{1, 1},
		CoDual:      []sim.CoCount{{I: 0, J: 1, N: 1}},
		NBoxes:      map[wiki.Language]int{wiki.Portuguese: 1, wiki.English: 1},
	})
	emb := linalg.NewMatrix(2, 1)
	emb.Data[0], emb.Data[1] = 0.7, 0.7
	model := lsi.Restore(attrs, 1, emb, [][2]int{{0, 1}})
	return &Snapshot{
		Fingerprint: 0xfeedface,
		CreatedAt:   time.Unix(1700000000, 0),
		Config:      core.DefaultParams(),
		Pairs: []PairArtifacts{{
			Pair:  wiki.PtEn,
			Types: [][2]string{{"filme", "film"}},
			Dict:  dict.FromEntries(wiki.Portuguese, wiki.English, [][2]string{{"direcao", "directed by"}}),
		}},
		Types: []TypeArtifacts{{
			Pair: wiki.PtEn, TypeA: "filme", TypeB: "film", TD: td, LSI: model,
		}},
	}
}

// FuzzReadSnapshot asserts the one property the warm-start path rests
// on: store.Read never panics and never hands out partial state, no
// matter how adversarial the bytes. Anything it does accept must survive
// a write/read round trip.
func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, tinySnapshot()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(Magic)+4]) // header cut short
	f.Add(valid[:headerSize+3]) // mid section table
	f.Add(valid[:len(valid)-1]) // truncated payload
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // payload bit flip
	f.Add(flipped)
	future := append([]byte(nil), valid...)
	future[8] = 0xff // format version from the future
	f.Add(future)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			if snap != nil {
				t.Fatalf("Read returned partial state alongside error %v", err)
			}
			return
		}
		// Accepted input must re-encode and re-decode cleanly: the decoded
		// artifacts are structurally sound, not just checksummed.
		var out bytes.Buffer
		if err := Write(&out, snap); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if _, err := Read(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
	})
}

// FuzzDecodeType drives the type-section decoder directly. Mutations of
// a whole snapshot mostly stop at the section CRC; here every mutation
// reaches the payload decoders — the similarity workspace and the LSI
// embedding — so they must never panic, never return a value alongside
// an error, and reach a canonical form after one re-encoding.
func FuzzDecodeType(f *testing.F) {
	valid := encodeType(&tinySnapshot().Types[0])
	f.Add(valid)
	for _, cut := range []int{0, 1, len(valid) / 4, len(valid) / 2, len(valid) - 20, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		ta, err := decodeType(payload)
		if err != nil {
			if ta != nil {
				t.Fatalf("decodeType returned a value alongside error %v", err)
			}
			return
		}
		once := encodeType(ta)
		tb, err := decodeType(once)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
		if twice := encodeType(tb); !bytes.Equal(once, twice) {
			t.Fatal("re-encoding a decoded payload is not stable")
		}
	})
}
