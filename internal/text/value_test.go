package text

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNormalizeValueDates(t *testing.T) {
	cases := []struct {
		in      string
		y, m, d int
	}{
		{"1950-12-18", 1950, 12, 18},
		{"December 18, 1950", 1950, 12, 18},
		{"18 de dezembro de 1950", 1950, 12, 18},
		{"18 tháng 12 năm 1950", 1950, 12, 18},
		{"1 de março de 2004", 2004, 3, 1},
		{"May 7, 1971", 1971, 5, 7},
		{"3 tháng 2 năm 1988", 1988, 2, 3},
		{"18 de Dezembro 1950", 1950, 12, 18},
		{"18 tháng 12 1950", 1950, 12, 18},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueDate || v.Year != c.y || v.Month != c.m || v.Day != c.d {
			t.Errorf("NormalizeValue(%q) = %+v, want date %04d-%02d-%02d", c.in, v, c.y, c.m, c.d)
		}
	}
	// The three edition renderings of one date agree canonically.
	want := NormalizeValue("1950-12-18").Canonical()
	for _, in := range []string{"December 18, 1950", "18 de dezembro de 1950", "18 tháng 12 năm 1950"} {
		if got := NormalizeValue(in).Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeValueNotDates(t *testing.T) {
	for _, in := range []string{"1950-13-18", "1950-12-32", "32 de dezembro de 1950", "978-0-123-45678-9", "0000-01-01", "February 31, 1950"} {
		if v := NormalizeValue(in); v.Kind == ValueDate {
			t.Errorf("NormalizeValue(%q) parsed as date %+v", in, v)
		}
	}
}

func TestNormalizeValueNumbers(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"160", 160},
		{"-5", -5},
		{"1,234", 1234},
		{"1.234", 1234},
		{"1,234.5", 1234.5},
		{"1.234,5", 1234.5},
		{"1,234,567", 1234567},
		{"1.234.567", 1234567},
		{"12,5", 12.5},
		{"12.5", 12.5},
		{"1.2 million", 1.2e6},
		{"40 million", 4e7},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueNumber || math.Abs(v.Number-c.want) > 1e-9 {
			t.Errorf("NormalizeValue(%q) = %+v, want number %v", c.in, v, c.want)
		}
	}
}

func TestNormalizeValueQuantities(t *testing.T) {
	cases := []struct {
		in       string
		unit     string
		number   float64
		mantissa float64
	}{
		{"160 minutes", "min", 160, 160},
		{"160 min", "min", 160, 160},
		{"160 phút", "min", 160, 160},
		{"2 giờ", "min", 120, 2},
		{"2 hours", "min", 120, 2},
		{"$23 million", "usd", 23e6, 23},
		{"US$ 23 milhões", "usd", 23e6, 23},
		{"23 triệu USD", "usd", 23e6, 23},
		{"$12 billion", "usd", 12e9, 12},
		{"US$ 12 bilhões", "usd", 12e9, 12},
		{"12 tỷ USD", "usd", 12e9, 12},
		{"5 km", "m", 5000, 5},
		{"180 cm", "m", 1.8, 180},
		{"70 kg", "kg", 70, 70},
		{"3 tonnes", "kg", 3000, 3},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueQuantity || v.Unit != c.unit ||
			math.Abs(v.Number-c.number) > 1e-9 || math.Abs(v.Mantissa-c.mantissa) > 1e-9 {
			t.Errorf("NormalizeValue(%q) = %+v, want %v %s (mantissa %v)", c.in, v, c.number, c.unit, c.mantissa)
		}
	}
	// The three money renderings of one amount agree canonically.
	want := NormalizeValue("$23 million").Canonical()
	for _, in := range []string{"US$ 23 milhões", "23 triệu USD"} {
		if got := NormalizeValue(in).Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeValueText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Francis Ford Coppola", "francis ford coppola"},
		{"França", "franca"},
		{"1940–1971", "1940–1971"},
		{"http://www.example.com", "http://www.example.com"},
		{"978-0-123-45678-9", "978-0-123-45678-9"},
		{"", ""},
	}
	for _, c := range cases {
		v := NormalizeValue(c.in)
		if v.Kind != ValueText || v.Text != c.want {
			t.Errorf("NormalizeValue(%q) = %+v, want text %q", c.in, v, c.want)
		}
	}
}

func TestNormalizeValueUnitMismatchShape(t *testing.T) {
	// A converted-unit rewrite keeps the mantissa and changes the scale —
	// the shape the audit detector keys on.
	a := NormalizeValue("160 minutes")
	b := NormalizeValue("160 giờ")
	if a.Unit != b.Unit {
		t.Fatalf("units differ: %q vs %q", a.Unit, b.Unit)
	}
	if a.Mantissa != b.Mantissa {
		t.Fatalf("mantissas differ: %v vs %v", a.Mantissa, b.Mantissa)
	}
	if a.Scale == b.Scale || a.Number == b.Number {
		t.Fatalf("scales should differ: %+v vs %+v", a, b)
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	inputs := []string{
		"160 minutes", "US$ 23 milhões", "18 tháng 12 năm 1950",
		"1.234,5", "2.345", "-2.345", "1,5", "France", "", "0.000",
		"9999999999999999999999", "1.2 million",
	}
	for _, in := range inputs {
		c1 := NormalizeValue(in).Canonical()
		c2 := NormalizeValue(c1).Canonical()
		if c1 != c2 {
			t.Errorf("Canonical not idempotent for %q: %q → %q", in, c1, c2)
		}
	}
}

func FuzzNormalizeValue(f *testing.F) {
	seeds := []string{
		"1950-12-18", "December 18, 1950", "18 de dezembro de 1950",
		"18 tháng 12 năm 1950", "160 minutes", "160 min", "160 phút",
		"US$ 23 milhões", "23 triệu USD", "$12 billion", "12 tỷ USD",
		"1,234.5", "1.234,5", "1.234.567", "5 km", "70 kg", "2 giờ",
		"France", "1940–1971", "978-0-123-45678-9", "", "-5", "+3,25",
		"0.000", "2.345", "us$", "$", "million", "min", "1950-13-40",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v := NormalizeValue(s) // must never panic
		c1 := v.Canonical()
		w := NormalizeValue(c1)
		c2 := w.Canonical()
		if c1 != c2 {
			t.Fatalf("Canonical not a fixed point: %q → %q → %q", s, c1, c2)
		}
		if w.Kind != NormalizeValue(c2).Kind {
			t.Fatalf("kind unstable on canonical form %q", c2)
		}
	})
}

func TestParseDate(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"December 18, 1950", "1950-12-18", true},
		{"December 18 1950", "1950-12-18", true},
		{"18 de dezembro de 1950", "1950-12-18", true},
		{"18 de Dezembro 1950", "1950-12-18", true},
		{"18 tháng 12 năm 1950", "1950-12-18", true},
		{"18 tháng 12 1950", "1950-12-18", true},
		{"June 4 1975", "1975-06-04", true},
		{"4 de junho de 1975", "1975-06-04", true},
		{"1950-12-18", "1950-12-18", true},
		{"just words", "", false},
		{"1963", "", false},
		{"December 40, 1950", "", false},
		{"0 de dezembro de 1950", "", false},
		{"160 minutes", "", false},
		{"February 31, 1950", "", false},
		{"31 de abril de 2001", "", false},
		{"29 de fevereiro de 2000", "2000-02-29", true},
		{"29 de fevereiro de 1900", "", false},
		{"29 tháng 2 2024", "2024-02-29", true},
	}
	for _, c := range cases {
		v, ok := ParseDate(c.in)
		if got := v.Canonical(); ok != c.ok || ok && got != c.want {
			t.Errorf("ParseDate(%q) = %q, %v; want %q, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestValueAtoms(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Los Angeles (California, USA)", []string{"Los Angeles (California, USA)"}},
		{"1,234,567", []string{"1,234,567"}},
		{"December 18, 1950", []string{"December 18, 1950"}},
		{"Irlanda, 18 de Dezembro de 1950,  Estados Unidos", []string{"Irlanda", "18 de Dezembro de 1950", "Estados Unidos"}},
		{"Paris, 1950", []string{"Paris", "1950"}},
		{" , a,,b ,", []string{"a", "b"}},
		{"", nil},
	}
	for _, c := range cases {
		if got := ValueAtoms(c.in); !slices.Equal(got, c.want) {
			t.Errorf("ValueAtoms(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// SplitValue does not re-join dates.
	if got, want := SplitValue("December 18, 1950"), []string{"December 18", "1950"}; !slices.Equal(got, want) {
		t.Errorf("SplitValue = %q, want %q", got, want)
	}
}

// oracleMonths is the month table both date oracles below read.
var oracleMonths = map[string]int{
	"january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
	"june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
	"november": 11, "december": 12,
	"janeiro": 1, "fevereiro": 2, "marco": 3, "abril": 4, "maio": 5,
	"junho": 6, "julho": 7, "agosto": 8, "setembro": 9, "outubro": 10,
	"novembro": 11, "dezembro": 12,
}

// tokenDateOracle is the token-grammar date reader vsim used before
// ParseDate: month/day/year shapes over Tokenize tokens, "de" and "nam"
// dropped, years 100–3000.
func tokenDateOracle(term string) (string, bool) {
	toks := Tokenize(term)
	if len(toks) < 3 || len(toks) > 5 {
		return "", false
	}
	var parts []string
	for _, t := range toks {
		if t == "de" || t == "nam" {
			continue
		}
		parts = append(parts, t)
	}
	if len(parts) != 3 && !(len(parts) == 4 && parts[1] == "thang") {
		return "", false
	}
	atoiOr := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			return -1
		}
		return v
	}
	var day, month, year int
	switch {
	case len(parts) == 4 && parts[1] == "thang":
		day, month, year = atoiOr(parts[0]), atoiOr(parts[2]), atoiOr(parts[3])
	case len(parts) == 3 && oracleMonths[parts[0]] > 0:
		month, day, year = oracleMonths[parts[0]], atoiOr(parts[1]), atoiOr(parts[2])
	case len(parts) == 3 && oracleMonths[parts[1]] > 0:
		day, month, year = atoiOr(parts[0]), oracleMonths[parts[1]], atoiOr(parts[2])
	default:
		return "", false
	}
	if day < 1 || day > 31 || month < 1 || month > 12 || year < 100 || year > 3000 {
		return "", false
	}
	return fmt.Sprintf("%04d-%02d-%02d", year, month, day), true
}

// fieldDateOracle is the field-grammar date reader NormalizeValue used
// before ParseDate: ISO, English and the exact Portuguese and Vietnamese
// forms over the whitespace fields of the normalized string.
func fieldDateOracle(s string) (string, bool) {
	fields := strings.Fields(Normalize(s))
	atoi := func(s string) (int, bool) {
		if s == "" || len(s) > 4 {
			return 0, false
		}
		n := 0
		for _, r := range s {
			if r < '0' || r > '9' {
				return 0, false
			}
			n = n*10 + int(r-'0')
		}
		return n, true
	}
	date := func(y, m, d int, ok bool) (string, bool) {
		if !ok || y < 1 || y > 9999 || m < 1 || m > 12 || d < 1 || d > 31 {
			return "", false
		}
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d), true
	}
	switch len(fields) {
	case 1:
		parts := strings.Split(fields[0], "-")
		if len(parts) != 3 || len(parts[0]) != 4 {
			return "", false
		}
		y, okY := atoi(parts[0])
		m, okM := atoi(parts[1])
		d, okD := atoi(parts[2])
		return date(y, m, d, okY && okM && okD)
	case 3:
		m, okM := oracleMonths[fields[0]]
		d, okD := atoi(strings.TrimSuffix(fields[1], ","))
		y, okY := atoi(fields[2])
		return date(y, m, d, okM && okD && okY)
	case 5:
		switch {
		case fields[1] == "de" && fields[3] == "de":
			d, okD := atoi(fields[0])
			m, okM := oracleMonths[fields[2]]
			y, okY := atoi(fields[4])
			return date(y, m, d, okD && okM && okY)
		case fields[1] == "thang" && fields[3] == "nam":
			d, okD := atoi(fields[0])
			m, okM := atoi(fields[2])
			y, okY := atoi(fields[4])
			return date(y, m, d, okD && okM && okY)
		}
	}
	return "", false
}

// FuzzParseDate requires ParseDate to accept every input either oracle
// accepts with a date that exists, giving the same ISO date (the field
// oracle's where the two disagree), to reject every input whose oracle
// date does not exist (February 30), and ValueAtoms to return only
// trimmed, non-empty atoms.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{
		"December 18, 1950", "December 18 1950", "18 de dezembro de 1950",
		"18 de Dezembro 1950", "18 tháng 12 năm 1950", "18 tháng 12 1950",
		"June 4 1975", "4 de junho de 1975", "just words", "1963",
		"December 40, 1950", "0 de dezembro de 1950", "160 minutes",
		"1950-12-18", "December 18, 50", "Los Angeles (California, USA), 1,234",
		"February 30, 2001",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := ParseDate(s)
		want, wantOK := fieldDateOracle(s)
		if !wantOK {
			want, wantOK = tokenDateOracle(s)
		}
		if wantOK {
			// The oracles check days against 31 only; a day its month
			// lacks is no date.
			if _, err := time.Parse(time.DateOnly, want); err != nil {
				if ok {
					t.Fatalf("ParseDate(%q) = %q; oracle's %q does not exist", s, v.Canonical(), want)
				}
			} else if !ok || v.Canonical() != want {
				t.Fatalf("ParseDate(%q) = %q, %v; oracle %q", s, v.Canonical(), ok, want)
			}
		}
		for _, a := range ValueAtoms(s) {
			if a == "" || a != strings.TrimSpace(a) {
				t.Fatalf("ValueAtoms(%q) has atom %q", s, a)
			}
		}
	})
}
