package text

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// ValueKind is the domain NormalizeValue recognized for an infobox value.
type ValueKind int

// Value domains, from most to least structured.
const (
	// ValueText is the fallback: free text compared by token/trigram
	// similarity.
	ValueText ValueKind = iota
	// ValueNumber is a bare magnitude (possibly written with a scale word:
	// "1.2 million").
	ValueNumber
	// ValueDate is a calendar date parsed from one of the edition formats.
	ValueDate
	// ValueQuantity is a magnitude with a unit (duration, length, mass,
	// currency-tagged amount), converted to a canonical base unit.
	ValueQuantity
)

// String names the kind for diagnostics and wire DTOs.
func (k ValueKind) String() string {
	switch k {
	case ValueNumber:
		return "number"
	case ValueDate:
		return "date"
	case ValueQuantity:
		return "quantity"
	default:
		return "text"
	}
}

// NormalizedValue is the typed normal form of one infobox value atom.
// Two values from different language editions describe the same fact
// exactly when their Canonical renderings agree; Mantissa and Scale keep
// the as-written decomposition so a detector can tell a wrong unit
// ("23 billion" for "23 million": same mantissa, different scale) from
// plain numeric drift.
type NormalizedValue struct {
	// Kind is the recognized domain.
	Kind ValueKind
	// Number is the canonical magnitude in the base unit (minutes, meters,
	// kilograms, dollars) for ValueNumber and ValueQuantity.
	Number float64
	// Mantissa is the number as written, before unit/scale conversion.
	Mantissa float64
	// Scale is the factor from the written form to the base unit
	// (1e9 for "billion", 60 for "hours"); 1 when written in base units.
	Scale float64
	// Unit is the canonical base unit ("min", "m", "kg", "usd") for
	// ValueQuantity; empty otherwise.
	Unit string
	// Year, Month, Day hold the calendar date for ValueDate.
	Year, Month, Day int
	// Text is the normalized surface form for ValueText.
	Text string
}

// Canonical renders the value in its language-neutral normal form. The
// rendering is a fixed point: NormalizeValue(v.Canonical()).Canonical()
// equals v.Canonical() for every input (the property FuzzNormalizeValue
// checks).
func (v NormalizedValue) Canonical() string {
	switch v.Kind {
	case ValueNumber:
		return formatNumber(v.Number)
	case ValueQuantity:
		return formatNumber(v.Number) + " " + v.Unit
	case ValueDate:
		return fmt.Sprintf("%04d-%02d-%02d", v.Year, v.Month, v.Day)
	default:
		return v.Text
	}
}

// NormalizeValue parses one infobox value atom into its typed normal
// form: dates in the edition conventions, as ParseDate reads them,
// numbers with locale-aware thousand/decimal
// separators ("1,234.5" and "1.234,5" both mean 1234.5), and magnitudes
// carrying units or scale words ("160 min", "2 giờ", "US$ 23 milhões",
// "23 triệu USD", "5 km"). Anything else falls back to normalized free
// text. It never panics on any input.
func NormalizeValue(raw string) NormalizedValue {
	norm := Normalize(raw)
	if norm == "" {
		return NormalizedValue{Kind: ValueText, Text: ""}
	}
	if v, ok := parseDate(norm); ok {
		return v
	}
	if v, ok := parseNumeric(norm); ok {
		return v
	}
	return NormalizedValue{Kind: ValueText, Text: norm}
}

// formatNumber renders a finite float in the canonical form parseNumeric
// reads back to the same value. A lone '.' followed by exactly three
// digits would re-parse as a thousands separator, so that one ambiguous
// shape gets a trailing zero appended ("2.345" → "2.3450").
func formatNumber(x float64) string {
	s := strconv.FormatFloat(x, 'f', -1, 64)
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		intDigits := dot
		if s[0] == '-' {
			intDigits--
		}
		if intDigits <= 3 && len(s)-dot-1 == 3 {
			s += "0"
		}
	}
	return s
}

// SplitValue cuts an infobox value into its atoms at commas outside
// parentheses. A comma between two digits is a thousands separator
// ("1,234,567"), not a boundary. Atoms are trimmed, and empty atoms are
// dropped.
func SplitValue(v string) []string {
	var atoms []string
	depth, last := 0, 0
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth > 0 || i > 0 && i+1 < len(v) && isDigit(rune(v[i-1])) && isDigit(rune(v[i+1])) {
				continue
			}
			atoms = appendAtom(atoms, v[last:i])
			last = i + 1
		}
	}
	return appendAtom(atoms, v[last:])
}

func appendAtom(atoms []string, a string) []string {
	if a = strings.TrimSpace(a); a != "" {
		atoms = append(atoms, a)
	}
	return atoms
}

// ValueAtoms is SplitValue with English dates made whole again: an atom
// followed by an all-digit atom becomes one atom when the two, joined as
// "a, b", read as a date ("December 18" + "1950").
func ValueAtoms(v string) []string {
	atoms := SplitValue(v)
	out := atoms[:0]
	for i := 0; i < len(atoms); i++ {
		if i+1 < len(atoms) && allDigits(atoms[i+1]) {
			joined := atoms[i] + ", " + atoms[i+1]
			if _, ok := ParseDate(joined); ok {
				out = append(out, joined)
				i++
				continue
			}
		}
		out = append(out, atoms[i])
	}
	return out
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isDigit(rune(s[i])) {
			return false
		}
	}
	return s != ""
}

// monthTable maps folded lowercase month names (English and Portuguese;
// Vietnamese months are numeric "tháng M") to their ordinal.
var monthTable = map[string]int{
	"january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
	"june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
	"november": 11, "december": 12,
	"janeiro": 1, "fevereiro": 2, "marco": 3, "abril": 4, "maio": 5,
	"junho": 6, "julho": 7, "agosto": 8, "setembro": 9, "outubro": 10,
	"novembro": 11, "dezembro": 12,
}

// ParseDate reads a calendar date written in any edition's convention
// and returns it as a ValueDate, whose Canonical form is ISO
// ("1950-12-18"):
//
//	ISO:        "1950-12-18"
//	English:    "December 18, 1950" / "December 18 1950"
//	Portuguese: "18 de dezembro de 1950" / "18 de Dezembro 1950"
//	Vietnamese: "18 tháng 12 năm 1950" / "18 tháng 12 1950"
//
// Years run 1–9999. Putting every edition's rendering of a date into one
// form plays the role the paper's title dictionary plays for date values
// (day-month pages are cross-linked articles in Wikipedia).
func ParseDate(s string) (NormalizedValue, bool) {
	return parseDate(Normalize(s))
}

// parseDate reads a date from a Normalize'd string. Apart from ISO, it
// reads the string's Tokenize tokens: three to five of them, which with
// the connectives "de" and "nam" dropped are [month day year],
// [day month year] or [day "thang" month year].
func parseDate(norm string) (NormalizedValue, bool) {
	if !strings.Contains(norm, " ") {
		if p := strings.Split(norm, "-"); len(p) == 3 && len(p[0]) == 4 {
			if v, ok := date(number(p[0]), number(p[1]), number(p[2])); ok {
				return v, true
			}
		}
	}
	toks := strings.FieldsFunc(norm, func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) })
	if len(toks) < 3 || len(toks) > 5 {
		return NormalizedValue{}, false
	}
	parts := toks[:0]
	for _, t := range toks {
		if t != "de" && t != "nam" {
			parts = append(parts, t)
		}
	}
	switch {
	case len(parts) == 4 && parts[1] == "thang":
		return date(number(parts[3]), number(parts[2]), number(parts[0]))
	case len(parts) == 3 && monthTable[parts[0]] > 0:
		return date(number(parts[2]), monthTable[parts[0]], number(parts[1]))
	case len(parts) == 3 && monthTable[parts[1]] > 0:
		return date(number(parts[2]), monthTable[parts[1]], number(parts[0]))
	}
	return NormalizedValue{}, false
}

// date validates a year, month and day; any of them is -1 when its field
// did not read as a number. The day must exist in its month of the
// Gregorian calendar: day 0 of the next month is the month's last day.
func date(y, m, d int) (NormalizedValue, bool) {
	if y < 1 || y > 9999 || m < 1 || m > 12 || d < 1 ||
		d > time.Date(y, time.Month(m)+1, 0, 0, 0, 0, 0, time.UTC).Day() {
		return NormalizedValue{}, false
	}
	return NormalizedValue{Kind: ValueDate, Year: y, Month: m, Day: d}, true
}

// number reads an all-digit date field, leading zeros allowed; it is -1
// for anything else and for values past 9999, which no field admits.
func number(s string) int {
	if s == "" {
		return -1
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if !isDigit(rune(s[i])) {
			return -1
		}
		if n = n*10 + int(s[i]-'0'); n > 9999 {
			return -1
		}
	}
	return n
}

// unitDef converts a written unit word to its canonical base unit.
type unitDef struct {
	Unit  string
	Scale float64
}

// unitWords maps folded lowercase unit tokens to base units: durations to
// minutes, lengths to meters, masses to kilograms.
var unitWords = map[string]unitDef{
	// Durations (base: minutes).
	"min": {"min", 1}, "mins": {"min", 1}, "minute": {"min", 1},
	"minutes": {"min", 1}, "minutos": {"min", 1}, "phut": {"min", 1},
	"h": {"min", 60}, "hour": {"min", 60}, "hours": {"min", 60},
	"hora": {"min", 60}, "horas": {"min", 60}, "gio": {"min", 60},
	// Lengths (base: meters).
	"mm": {"m", 0.001}, "cm": {"m", 0.01}, "m": {"m", 1}, "km": {"m", 1000},
	"mi": {"m", 1609.344}, "mile": {"m", 1609.344}, "miles": {"m", 1609.344},
	"ft": {"m", 0.3048}, "feet": {"m", 0.3048},
	// Masses (base: kilograms).
	"mg": {"kg", 1e-6}, "g": {"kg", 0.001}, "kg": {"kg", 1},
	"t": {"kg", 1000}, "ton": {"kg", 1000}, "tons": {"kg", 1000},
	"tonne": {"kg", 1000}, "tonnes": {"kg", 1000},
	"lb": {"kg", 0.45359237}, "lbs": {"kg", 0.45359237},
}

// ScaleWord returns the multiplier a spelled-out magnitude word stands
// for, read as one Tokenize token ("milhoes" → 1e6).
func ScaleWord(tok string) (float64, bool) {
	s, ok := scaleWords[tok]
	return s, ok
}

// scaleWords are the magnitude multipliers editions spell out:
// million/milhões/triệu, billion/bilhões/tỷ, thousand/mil/nghìn.
var scaleWords = map[string]float64{
	"thousand": 1e3, "mil": 1e3, "nghin": 1e3,
	"million": 1e6, "millions": 1e6, "milhao": 1e6, "milhoes": 1e6,
	"trieu":   1e6,
	"billion": 1e9, "billions": 1e9, "bilhao": 1e9, "bilhoes": 1e9,
	"ty": 1e9,
}

// currencyWords tag a magnitude as a dollar amount.
var currencyWords = map[string]bool{
	"usd": true, "dollar": true, "dollars": true,
	"dolar": true, "dolares": true,
}

// parseNumeric recognizes numbers, scaled numbers, and unit-bearing
// quantities over the normalized string.
func parseNumeric(norm string) (NormalizedValue, bool) {
	var pieces []string
	for _, f := range strings.Fields(norm) {
		pieces = append(pieces, splitPieces(f)...)
	}
	var (
		num      float64
		haveNum  bool
		scale    = 1.0
		unit     unitDef
		haveUnit bool
		currency bool
	)
	for i := 0; i < len(pieces); i++ {
		p := pieces[i]
		if p == "$" {
			currency = true
			continue
		}
		if p == "us" && i+1 < len(pieces) && pieces[i+1] == "$" {
			currency = true
			i++
			continue
		}
		if n, ok := parseLocaleNumber(p); ok {
			if haveNum {
				return NormalizedValue{}, false
			}
			num, haveNum = n, true
			continue
		}
		if !haveNum {
			// Unit, scale and currency words only follow the magnitude
			// (currency symbols may precede it).
			return NormalizedValue{}, false
		}
		if s, ok := scaleWords[p]; ok {
			scale *= s
			continue
		}
		if currencyWords[p] {
			currency = true
			continue
		}
		if u, ok := unitWords[p]; ok && !haveUnit && !currency {
			unit, haveUnit = u, true
			continue
		}
		return NormalizedValue{}, false
	}
	if !haveNum || (haveUnit && currency) {
		return NormalizedValue{}, false
	}
	if currency {
		unit, haveUnit = unitDef{Unit: "usd", Scale: 1}, true
	}
	totalScale := scale
	if haveUnit {
		totalScale *= unit.Scale
	}
	total := num * totalScale
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return NormalizedValue{}, false
	}
	v := NormalizedValue{
		Kind:     ValueNumber,
		Number:   total,
		Mantissa: num,
		Scale:    totalScale,
	}
	if haveUnit {
		v.Kind = ValueQuantity
		v.Unit = unit.Unit
	}
	return v, true
}

// splitPieces cuts one whitespace-free field into number runs, letter
// runs, and single symbol runes, so glued forms ("$23", "160min") parse.
// A sign joins the following number run only when it starts one.
func splitPieces(f string) []string {
	var pieces []string
	runes := []rune(f)
	for i := 0; i < len(runes); {
		r := runes[i]
		switch {
		case isNumRune(r) || ((r == '-' || r == '+') && i+1 < len(runes) && isDigit(runes[i+1])):
			j := i + 1
			for j < len(runes) && isNumRune(runes[j]) {
				j++
			}
			pieces = append(pieces, string(runes[i:j]))
			i = j
		case isLetter(r):
			j := i + 1
			for j < len(runes) && isLetter(runes[j]) {
				j++
			}
			pieces = append(pieces, string(runes[i:j]))
			i = j
		default:
			pieces = append(pieces, string(r))
			i++
		}
	}
	return pieces
}

func isDigit(r rune) bool   { return r >= '0' && r <= '9' }
func isNumRune(r rune) bool { return isDigit(r) || r == '.' || r == ',' }
func isLetter(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

// parseLocaleNumber reads a number written with either separator
// convention: '.' or ',' as the decimal mark, the other (or repeated
// groups of the same) as thousands grouping. A single separator followed
// by exactly three digits after a 1–3 digit head is grouping ("1,234",
// "1.234" → 1234); anything else is a decimal mark.
func parseLocaleNumber(s string) (float64, bool) {
	neg := false
	switch {
	case strings.HasPrefix(s, "-"):
		neg, s = true, s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	}
	if s == "" || !isDigit(rune(s[0])) || !isDigit(rune(s[len(s)-1])) {
		return 0, false
	}
	for _, r := range s {
		if !isNumRune(r) {
			return 0, false
		}
	}
	dots := strings.Count(s, ".")
	commas := strings.Count(s, ",")
	var intPart, fracPart string
	switch {
	case dots > 0 && commas > 0:
		dec := byte('.')
		if strings.LastIndexByte(s, ',') > strings.LastIndexByte(s, '.') {
			dec = ','
		}
		if strings.Count(s, string(dec)) != 1 {
			return 0, false
		}
		i := strings.IndexByte(s, dec)
		intPart, fracPart = s[:i], s[i+1:]
		group := byte(',')
		if dec == ',' {
			group = '.'
		}
		var ok bool
		intPart, ok = ungroup(intPart, group)
		if !ok || strings.ContainsAny(fracPart, ".,") {
			return 0, false
		}
	case dots+commas == 1:
		sep := byte('.')
		if commas == 1 {
			sep = ','
		}
		i := strings.IndexByte(s, sep)
		if len(s)-i-1 == 3 && i <= 3 {
			intPart = s[:i] + s[i+1:] // thousands grouping
		} else {
			intPart, fracPart = s[:i], s[i+1:]
		}
	case dots > 1 || commas > 1:
		sep := byte('.')
		if commas > 1 {
			sep = ','
		}
		var ok bool
		intPart, ok = ungroup(s, sep)
		if !ok {
			return 0, false
		}
	default:
		intPart = s
	}
	num := intPart
	if fracPart != "" {
		num += "." + fracPart
	}
	x, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsInf(x, 0) || math.IsNaN(x) {
		return 0, false
	}
	if neg {
		x = -x
	}
	return x, true
}

// ungroup strips thousands separators, requiring a 1–3 digit head and
// exactly-3-digit groups.
func ungroup(s string, sep byte) (string, bool) {
	parts := strings.Split(s, string(sep))
	if len(parts[0]) < 1 || len(parts[0]) > 3 {
		return "", false
	}
	for _, p := range parts[1:] {
		if len(p) != 3 {
			return "", false
		}
	}
	return strings.Join(parts, ""), true
}
