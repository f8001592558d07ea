package text

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Direção", "direcao"},
		{"NASCIMENTO", "nascimento"},
		{"đạo diễn", "dao dien"},
		{"ngôn ngữ", "ngon ngu"},
		{"  multiple   spaces  ", "multiple spaces"},
		{"Cônjuge", "conjuge"},
		{"elenco original", "elenco original"},
		{"Thể loại", "the loai"},
		{"ÉÃÇ", "eac"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// normalizeOracle is Normalize's reference: lowercase, fold diacritics,
// then collapse whitespace, one full pass each.
func normalizeOracle(s string) string {
	s = strings.ToLower(s)
	s = foldDiacritics(s)
	return strings.Join(strings.Fields(s), " ")
}

// foldDiacritics replaces accented Latin letters with their base ASCII
// letters, keeping upper case. Unknown runes pass through unchanged.
func foldDiacritics(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if f, ok := foldTable[r]; ok {
			b.WriteRune(f)
		} else if f, ok := foldTable[unicode.ToLower(r)]; ok {
			b.WriteRune(unicode.ToUpper(f))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// FuzzNormalize requires the single-pass Normalize to match the
// three-pass oracle byte for byte.
func FuzzNormalize(f *testing.F) {
	seeds := []string{
		"", "ÉÃÇ", "Direção", "DIREÇÃO DE FOTOGRAFIA", "elenco original",
		"ELENCO ORIGINAL", "Cônjuge", "Thể loại đạo diễn", "THỂ LOẠI ĐẠO DIỄN",
		"ngôn ngữ", "NGÔN NGỮ", "a\tb", "x\u0085y", "\u00a0São\u00a0Paulo\u00a0",
		"  multiple   spaces  ", " lead", "trail ", "a  b", "\t\n\v\f\r",
		"\xff", "ab\xc3", "Ação\xe2\x82", "\xed\xa0\x80x", "İstanbul", "ǅemal",
		"STRAẞE", "5 \u212a", "\u212aelvin",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Normalize(s), normalizeOracle(s); got != want {
			t.Fatalf("Normalize(%q) = %q, oracle %q", s, got, want)
		}
	})
}

func TestNormalizeNormalASCIIZeroAllocs(t *testing.T) {
	s := "elenco original"
	if allocs := testing.AllocsPerRun(100, func() { s = Normalize(s) }); allocs != 0 {
		t.Errorf("Normalize(%q) made %v allocations, want 0", s, allocs)
	}
}

func BenchmarkNormalize(b *testing.B) {
	for _, bc := range []struct{ name, in string }{
		{"ascii-normal", "elenco original"},
		{"ascii-mixed", "Elenco  Original"},
		{"pt", "Direção de Fotografia"},
		{"vi", "Thể loại đạo diễn"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Normalize(bc.in)
			}
		})
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("John Lone, Joan Chen (1987)")
	want := []string{"john", "lone", "joan", "chen", "1987"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("Tokenize(\"\") = %v", toks)
	}
}

func TestNGrams(t *testing.T) {
	grams := NGrams("ab", 3)
	want := []string{"#ab", "ab#"}
	if len(grams) != len(want) {
		t.Fatalf("NGrams = %v", grams)
	}
	for i := range want {
		if grams[i] != want[i] {
			t.Errorf("gram[%d] = %q, want %q", i, grams[i], want[i])
		}
	}
	if g := NGrams("", 0); g != nil {
		t.Errorf("NGrams n=0 = %v, want nil", g)
	}
	if g := NGrams("x", 5); len(g) != 1 || g[0] != "#x#" {
		t.Errorf("short string grams = %v", g)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"editora", "editor", 1},
		{"ação", "acao", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity("", ""); got != 1 {
		t.Errorf("empty-empty = %v", got)
	}
	if got := EditSimilarity("editora", "editor"); got < 0.85 {
		t.Errorf("editora/editor = %v, want high (false cognate risk)", got)
	}
	if got := EditSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
}

func TestTrigramSimilarity(t *testing.T) {
	if got := TrigramSimilarity("starring", "starring"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := TrigramSimilarity("starring", "estrelando"); got > 0.5 {
		t.Errorf("starring/estrelando = %v, should be low", got)
	}
	if got := TrigramSimilarity("", "x"); got != 0 {
		// "" pads to "##": single gram, no overlap with "#x#".
		t.Errorf("empty/x = %v", got)
	}
}

func TestSimilarityBoundsProperty(t *testing.T) {
	inRange := func(a, b string) bool {
		for _, s := range []float64{EditSimilarity(a, b), TrigramSimilarity(a, b), JaccardTokens(a, b)} {
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(inRange, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("similarity out of [0,1]: %v", err)
	}
}

func TestJaccardTokens(t *testing.T) {
	if got := JaccardTokens("united states", "United States"); got != 1 {
		t.Errorf("case-insensitive jaccard = %v", got)
	}
	if got := JaccardTokens("a b", "b c"); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("jaccard = %v, want 1/3", got)
	}
}

func TestTFCosine(t *testing.T) {
	// Paper Example 1: translated nascimento vector vs born vector.
	va := TF{"1963": 1, "Ireland": 1, "December 18 1950": 1, "United States": 1}
	vb := TF{"1963": 1, "Ireland": 1, "June 4 1975": 1, "United States": 2}
	got := va.Cosine(vb)
	// dot = 1 + 1 + 2 = 4; |va| = 2; |vb| = sqrt(1+1+1+4) = sqrt(7)
	want := 4 / (2 * math.Sqrt(7))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cosine = %v, want %v", got, want)
	}
	if math.Abs(want-0.71) > 0.05 {
		t.Errorf("paper example value drifted: %v", want)
	}
}

func TestTFCosineProperties(t *testing.T) {
	type pair struct{ A, B []string }
	prop := func(p pair) bool {
		va, vb := termsTF(p.A), termsTF(p.B)
		c1, c2 := va.Cosine(vb), vb.Cosine(va)
		if math.Abs(c1-c2) > 1e-12 {
			return false
		}
		return c1 >= 0 && c1 <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("cosine properties: %v", err)
	}
	selfOne := func(terms []string) bool {
		v := termsTF(terms)
		if len(v) == 0 {
			return v.Cosine(v) == 0
		}
		return math.Abs(v.Cosine(v)-1) < 1e-12
	}
	if err := quick.Check(selfOne, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("self-cosine: %v", err)
	}
}

func TestTFOps(t *testing.T) {
	v := termsTF([]string{"a", "b", "a", ""})
	if v["a"] != 2 || v["b"] != 1 {
		t.Errorf("Add counts = %v", v)
	}
	if _, ok := v[""]; ok {
		t.Error("empty term stored")
	}
	v.Add("c", 3)
	v.Add("", 9)
	if v["c"] != 3 || len(v) != 3 {
		t.Errorf("Add = %v", v)
	}
}

// termsTF counts terms into a TF vector, one Add per term.
func termsTF(terms []string) TF {
	v := TF{}
	for _, term := range terms {
		v.Add(term, 1)
	}
	return v
}
