package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dict"
	"repro/internal/linalg"
	"repro/internal/lsi"
	"repro/internal/sim"
	"repro/internal/text"
	"repro/internal/wiki"
)

// Payload codecs for the artifact sections. All integers are uvarints,
// strings are length-prefixed UTF-8, and float64 values are stored as
// their exact IEEE-754 bit patterns — the decoded artifacts are
// bit-identical to the encoded ones, which is what lets a restored
// session reproduce a cold session's results byte for byte. Map-shaped
// state (TF vectors, co-occurrence counters, dictionaries) is written in
// sorted order so the same artifacts always produce the same bytes.

// encoder accumulates a payload.
type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v int) { e.buf = binary.AppendUvarint(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) str(s string)  { e.uvarint(len(s)); e.buf = append(e.buf, s...) }
func (e *encoder) blob(b []byte) { e.uvarint(len(b)); e.buf = append(e.buf, b...) }
func (e *encoder) boolean(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// tf writes a term-frequency vector with sorted terms.
func (e *encoder) tf(v text.TF) {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	e.uvarint(len(terms))
	for _, t := range terms {
		e.str(t)
		e.f64(v[t])
	}
}

// decoder consumes a payload, accumulating the first error.
type decoder struct {
	buf []byte
	err error
}

var errShort = errors.New("unexpected end of payload")

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || v > math.MaxInt64 {
		d.fail(errShort)
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

// count reads a length and bounds it against the remaining payload
// (each element needs at least one byte), so corrupt lengths cannot
// drive huge allocations.
func (d *decoder) count() int {
	n := d.uvarint()
	if d.err == nil && n > len(d.buf) {
		d.fail(errShort)
		return 0
	}
	return n
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail(errShort)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > len(d.buf) {
		d.fail(errShort)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) blob() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > len(d.buf) {
		d.fail(errShort)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) boolean() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 {
		d.fail(errShort)
		return false
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	if v > 1 {
		d.fail(fmt.Errorf("invalid boolean byte %d", v))
		return false
	}
	return v == 1
}

func (d *decoder) tf() text.TF {
	n := d.count()
	v := make(text.TF, n)
	for i := 0; i < n && d.err == nil; i++ {
		term := d.str()
		v[term] = d.f64()
	}
	return v
}

// finish asserts the payload was consumed exactly.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return nil
}

// --- pair section ------------------------------------------------------

// encodePair writes one pair's artifacts: the entity-type alignment and
// the translation dictionary. The format allows a pair without one (a
// snapshot of the NoDictionary ablation); Restore refuses such a pair.
func encodePair(p *PairArtifacts) []byte {
	var e encoder
	e.str(string(p.Pair.A))
	e.str(string(p.Pair.B))
	e.uvarint(len(p.Types))
	for _, tp := range p.Types {
		e.str(tp[0])
		e.str(tp[1])
	}
	e.boolean(p.Dict != nil)
	if p.Dict != nil {
		e.str(string(p.Dict.From))
		e.str(string(p.Dict.To))
		entries := p.Dict.Entries()
		e.uvarint(len(entries))
		for _, kv := range entries {
			e.str(kv[0])
			e.str(kv[1])
		}
	}
	return e.buf
}

func decodePair(payload []byte) (*PairArtifacts, error) {
	d := decoder{buf: payload}
	p := &PairArtifacts{}
	p.Pair.A = wiki.Language(d.str())
	p.Pair.B = wiki.Language(d.str())
	n := d.count()
	p.Types = make([][2]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		a := d.str()
		b := d.str()
		p.Types = append(p.Types, [2]string{a, b})
	}
	if d.boolean() {
		from := wiki.Language(d.str())
		to := wiki.Language(d.str())
		m := d.count()
		entries := make([][2]string, 0, m)
		for i := 0; i < m && d.err == nil; i++ {
			k := d.str()
			v := d.str()
			entries = append(entries, [2]string{k, v})
		}
		p.Dict = dict.FromEntries(from, to, entries)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// --- type section ------------------------------------------------------

// encodeType writes one entity-type pair's artifacts: the similarity
// workspace and the LSI model.
func encodeType(t *TypeArtifacts) []byte {
	var e encoder
	e.str(string(t.Pair.A))
	e.str(string(t.Pair.B))
	e.str(t.TypeA)
	e.str(t.TypeB)
	encodeTypeData(&e, t.TD.Snapshot())
	encodeModel(&e, t.LSI)
	return e.buf
}

func decodeType(payload []byte) (*TypeArtifacts, error) {
	d := decoder{buf: payload}
	t := &TypeArtifacts{}
	t.Pair.A = wiki.Language(d.str())
	t.Pair.B = wiki.Language(d.str())
	t.TypeA = d.str()
	t.TypeB = d.str()
	snap := decodeTypeData(&d)
	model := decodeModel(&d)
	if err := d.finish(); err != nil {
		return nil, err
	}
	t.TD = sim.FromSnapshot(snap)
	t.LSI = model
	return t, nil
}

func encodeAttrs(e *encoder, attrs []sim.Attr) {
	e.uvarint(len(attrs))
	for _, a := range attrs {
		e.str(string(a.Lang))
		e.str(a.Name)
	}
}

func decodeAttrs(d *decoder) []sim.Attr {
	n := d.count()
	attrs := make([]sim.Attr, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		lang := wiki.Language(d.str())
		name := d.str()
		attrs = append(attrs, sim.Attr{Lang: lang, Name: name})
	}
	return attrs
}

// vecs writes one TF vector per attribute; nilable marks sides that may
// be absent (the translated vectors exist only on the pair.A side).
func encodeVecs(e *encoder, vecs []text.TF, nilable bool) {
	e.uvarint(len(vecs))
	for _, v := range vecs {
		if nilable {
			e.boolean(v != nil)
			if v == nil {
				continue
			}
		}
		e.tf(v)
	}
}

func decodeVecs(d *decoder, nilable bool) []text.TF {
	n := d.count()
	vecs := make([]text.TF, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		if nilable && !d.boolean() {
			vecs = append(vecs, nil)
			continue
		}
		vecs = append(vecs, d.tf())
	}
	return vecs
}

func encodeIndexList(e *encoder, idx []int) {
	e.uvarint(len(idx))
	for _, i := range idx {
		e.uvarint(i)
	}
}

func (d *decoder) indexList(limit int) []int {
	n := d.count()
	out := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		v := d.uvarint()
		if d.err == nil && v >= limit {
			d.fail(fmt.Errorf("attribute index %d out of range %d", v, limit))
			return out
		}
		out = append(out, v)
	}
	return out
}

func encodeCoCounts(e *encoder, cs []sim.CoCount) {
	e.uvarint(len(cs))
	for _, c := range cs {
		e.uvarint(c.I)
		e.uvarint(c.J)
		e.uvarint(c.N)
	}
}

func decodeCoCounts(d *decoder, limit int) []sim.CoCount {
	n := d.count()
	out := make([]sim.CoCount, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		c := sim.CoCount{I: d.uvarint(), J: d.uvarint(), N: d.uvarint()}
		if d.err == nil && (c.I >= limit || c.J >= limit) {
			d.fail(fmt.Errorf("co-occurrence index (%d,%d) out of range %d", c.I, c.J, limit))
			return out
		}
		out = append(out, c)
	}
	return out
}

func encodeTypeData(e *encoder, s *sim.Snapshot) {
	e.str(string(s.Pair.A))
	e.str(string(s.Pair.B))
	e.str(s.TypeA)
	e.str(s.TypeB)
	encodeAttrs(e, s.Attrs)
	e.uvarint(len(s.Display))
	for _, disp := range s.Display {
		e.str(disp)
	}
	e.uvarint(len(s.DualsA))
	for k := range s.DualsA {
		encodeIndexList(e, s.DualsA[k])
		encodeIndexList(e, s.DualsB[k])
	}
	encodeVecs(e, s.ValueVec, false)
	encodeVecs(e, s.TransVec, true)
	encodeVecs(e, s.LinkVec, false)
	encodeVecs(e, s.RawVec, false)
	encodeVecs(e, s.RawTransVec, true)
	e.uvarint(len(s.Occ))
	for _, o := range s.Occ {
		e.uvarint(o)
	}
	encodeCoCounts(e, s.CoLang)
	encodeCoCounts(e, s.CoDual)
	langs := make([]string, 0, len(s.NBoxes))
	for l := range s.NBoxes {
		langs = append(langs, string(l))
	}
	sort.Strings(langs)
	e.uvarint(len(langs))
	for _, l := range langs {
		e.str(l)
		e.uvarint(s.NBoxes[wiki.Language(l)])
	}
}

func decodeTypeData(d *decoder) *sim.Snapshot {
	s := &sim.Snapshot{}
	s.Pair.A = wiki.Language(d.str())
	s.Pair.B = wiki.Language(d.str())
	s.TypeA = d.str()
	s.TypeB = d.str()
	s.Attrs = decodeAttrs(d)
	nAttrs := len(s.Attrs)
	nd := d.count()
	s.Display = make([]string, 0, nd)
	for i := 0; i < nd && d.err == nil; i++ {
		s.Display = append(s.Display, d.str())
	}
	nDuals := d.count()
	s.DualsA = make([][]int, 0, nDuals)
	s.DualsB = make([][]int, 0, nDuals)
	for k := 0; k < nDuals && d.err == nil; k++ {
		s.DualsA = append(s.DualsA, d.indexList(nAttrs))
		s.DualsB = append(s.DualsB, d.indexList(nAttrs))
	}
	s.ValueVec = decodeVecs(d, false)
	s.TransVec = decodeVecs(d, true)
	s.LinkVec = decodeVecs(d, false)
	s.RawVec = decodeVecs(d, false)
	s.RawTransVec = decodeVecs(d, true)
	nOcc := d.count()
	s.Occ = make([]int, 0, nOcc)
	for i := 0; i < nOcc && d.err == nil; i++ {
		s.Occ = append(s.Occ, d.uvarint())
	}
	s.CoLang = decodeCoCounts(d, nAttrs)
	s.CoDual = decodeCoCounts(d, nAttrs)
	nLangs := d.count()
	s.NBoxes = make(map[wiki.Language]int, nLangs)
	for i := 0; i < nLangs && d.err == nil; i++ {
		l := wiki.Language(d.str())
		s.NBoxes[l] = d.uvarint()
	}
	if d.err == nil && (len(s.Display) != nAttrs ||
		len(s.ValueVec) != nAttrs || len(s.TransVec) != nAttrs ||
		len(s.LinkVec) != nAttrs || len(s.RawVec) != nAttrs ||
		len(s.RawTransVec) != nAttrs || len(s.Occ) != nAttrs) {
		d.fail(fmt.Errorf("attribute-indexed slices disagree with %d attributes", nAttrs))
	}
	return s
}

// embedding writes an LSI embedding as a blob holding uvarint rows,
// uvarint cols, then the rows·cols entries in row-major order.
func (e *encoder) embedding(m *linalg.Matrix) {
	inner := encoder{buf: make([]byte, 0, 2*binary.MaxVarintLen64+8*len(m.Data))}
	inner.uvarint(m.Rows)
	inner.uvarint(m.Cols)
	for _, v := range m.Data {
		inner.f64(v)
	}
	e.blob(inner.buf)
}

// embedding reads the blob embedding writes. The header is checked
// against the blob's length before the matrix is allocated, so a
// corrupt size fails here instead of driving a huge allocation.
func (d *decoder) embedding() *linalg.Matrix {
	in := decoder{buf: d.blob()}
	if d.err != nil {
		return nil
	}
	rows, cols := in.uvarint(), in.uvarint()
	if in.err == nil && cols != 0 && rows > len(in.buf)/8/cols {
		in.fail(fmt.Errorf("%d×%d does not fit %d bytes", rows, cols, len(in.buf)))
	}
	if in.err != nil {
		d.fail(fmt.Errorf("lsi embedding: %w", in.err))
		return nil
	}
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = in.f64()
	}
	if err := in.finish(); err != nil {
		d.fail(fmt.Errorf("lsi embedding: %w", err))
		return nil
	}
	return m
}

func encodeModel(e *encoder, m *lsi.Model) {
	e.uvarint(m.Rank())
	encodeAttrs(e, m.Attrs)
	e.embedding(m.Embedding())
	pairs := m.CoOccurrences()
	e.uvarint(len(pairs))
	for _, p := range pairs {
		e.uvarint(p[0])
		e.uvarint(p[1])
	}
}

func decodeModel(d *decoder) *lsi.Model {
	rank := d.uvarint()
	attrs := decodeAttrs(d)
	emb := d.embedding()
	if d.err != nil {
		return nil
	}
	if emb.Rows != len(attrs) {
		d.fail(fmt.Errorf("lsi embedding has %d rows for %d attributes", emb.Rows, len(attrs)))
		return nil
	}
	n := d.count()
	pairs := make([][2]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		p := [2]int{d.uvarint(), d.uvarint()}
		if d.err == nil && (p[0] >= len(attrs) || p[1] >= len(attrs)) {
			d.fail(fmt.Errorf("lsi co-occurrence (%d,%d) out of range %d", p[0], p[1], len(attrs)))
			return nil
		}
		pairs = append(pairs, p)
	}
	if d.err != nil {
		return nil
	}
	return lsi.Restore(attrs, rank, emb, pairs)
}
