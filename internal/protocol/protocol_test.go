package protocol

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/wiki"
)

func f64(v float64) *float64 { return &v }

// TestValidate table-tests the one shared validation path.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		req     MatchRequest
		wantErr string // "" means valid
		check   func(t *testing.T, r Resolved)
	}{
		{
			name: "default pair",
			req:  MatchRequest{},
			check: func(t *testing.T, r Resolved) {
				if r.All || r.Pair != wiki.PtEn {
					t.Errorf("resolved %+v, want default pt-en", r)
				}
			},
		},
		{
			name: "vn alias",
			req:  MatchRequest{Pair: "vn-en"},
			check: func(t *testing.T, r Resolved) {
				if r.Pair != wiki.VnEn {
					t.Errorf("pair = %v", r.Pair)
				}
			},
		},
		{
			name: "colon pair with hyphenated codes",
			req:  MatchRequest{Pair: "zh-min-nan:en"},
			check: func(t *testing.T, r Resolved) {
				if r.Pair != (wiki.LanguagePair{A: "zh-min-nan", B: "en"}) {
					t.Errorf("pair = %v", r.Pair)
				}
			},
		},
		{
			name:    "multi-hyphen pair is ambiguous",
			req:     MatchRequest{Pair: "zh-min-nan-en"},
			wantErr: `ambiguous language pair "zh-min-nan-en": edition codes may contain hyphens, separate them with a colon (e.g. "zh-min-nan:en")`,
		},
		{
			name: "single type",
			req:  MatchRequest{Pair: "pt-en", Type: "filme"},
			check: func(t *testing.T, r Resolved) {
				if r.Type != "filme" {
					t.Errorf("type = %q", r.Type)
				}
			},
		},
		{
			name: "all defaults",
			req:  MatchRequest{All: true},
			check: func(t *testing.T, r Resolved) {
				// Hub stays empty here: multi.NewPlan resolves it against
				// the corpus's language set (DefaultHub).
				if r.Multi.Mode != multi.ModePivot || r.Multi.Hub != "" {
					t.Errorf("multi = %+v", r.Multi)
				}
			},
		},
		{
			name: "all direct with hub and workers",
			req:  MatchRequest{All: true, Mode: "direct", Hub: "pt", Workers: 3},
			check: func(t *testing.T, r Resolved) {
				if r.Multi.Mode != multi.ModeDirect || r.Multi.Hub != wiki.Portuguese || r.Multi.Workers != 3 {
					t.Errorf("multi = %+v", r.Multi)
				}
			},
		},
		{
			name: "threshold overrides pass through",
			req:  MatchRequest{TSim: f64(0.8), TLSI: f64(0.2), TEg: f64(0.3)},
			check: func(t *testing.T, r Resolved) {
				p := r.Overrides.Apply(core.DefaultParams())
				if p.TSim != 0.8 || p.TLSI != 0.2 || p.TEg != 0.3 {
					t.Errorf("applied params = %+v", p)
				}
				// The artifact-shaping LSI rank must be untouched.
				if p.LSIRank != core.DefaultParams().LSIRank {
					t.Errorf("override leaked into the LSI rank: %+v", p)
				}
			},
		},
		{name: "bad pair", req: MatchRequest{Pair: "bogus"}, wantErr: `invalid language pair "bogus" (want e.g. "pt-en")`},
		{name: "bad mode", req: MatchRequest{All: true, Mode: "sideways"}, wantErr: `multi: unknown mode "sideways" (want "pivot" or "direct")`},
		{name: "bad hub", req: MatchRequest{All: true, Hub: "EN"}, wantErr: `invalid hub language "EN"`},
		{name: "bad workers", req: MatchRequest{All: true, Workers: -1}, wantErr: `invalid workers -1`},
		{name: "all with pair", req: MatchRequest{All: true, Pair: "pt-en"}, wantErr: `all-pairs request must not set pair (got "pt-en")`},
		{name: "all with type", req: MatchRequest{All: true, Type: "filme"}, wantErr: `all-pairs request must not set type (got "filme")`},
		{name: "pair with mode", req: MatchRequest{Pair: "pt-en", Mode: "pivot"}, wantErr: `mode, hub and workers apply only to all-pairs requests (set "all": true)`},
		{name: "pair with workers", req: MatchRequest{Workers: 2}, wantErr: `mode, hub and workers apply only to all-pairs requests (set "all": true)`},
		{name: "tsim too big", req: MatchRequest{TSim: f64(1.5)}, wantErr: `invalid tsim 1.5 (want a threshold in [0,1])`},
		{name: "teg negative", req: MatchRequest{TEg: f64(-0.1)}, wantErr: `invalid teg -0.1 (want a threshold in [0,1])`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.req.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				if c.check != nil {
					c.check(t, r)
				}
				return
			}
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T), want *Error", err, err)
			}
			if pe.Code != CodeInvalidArgument {
				t.Errorf("code = %s, want %s", pe.Code, CodeInvalidArgument)
			}
			if pe.Message != c.wantErr {
				t.Errorf("message = %q, want %q", pe.Message, c.wantErr)
			}
		})
	}
}

// TestOverridesEmpty checks that an override-free request keeps the
// session's matcher (Empty drives that fast path).
func TestOverridesEmpty(t *testing.T) {
	if !(Overrides{}).Empty() {
		t.Error("zero Overrides not Empty")
	}
	for _, o := range []Overrides{{TSim: f64(0.5)}, {TLSI: f64(0.5)}, {TEg: f64(0.5)}} {
		if o.Empty() {
			t.Errorf("set Overrides %+v reported Empty", o)
		}
	}
	p := core.DefaultParams()
	if got := (Overrides{}).Apply(p); got != p {
		t.Errorf("empty Apply changed params: %+v", got)
	}
}

// TestErrorHTTPMapping checks both directions of the code↔status
// mapping and the retryability contract.
func TestErrorHTTPMapping(t *testing.T) {
	cases := []struct {
		code      string
		status    int
		retryable bool
	}{
		{CodeInvalidArgument, http.StatusBadRequest, false},
		{CodeNotFound, http.StatusNotFound, false},
		{CodeMethodNotAllowed, http.StatusMethodNotAllowed, false},
		{CodePayloadTooLarge, http.StatusRequestEntityTooLarge, false},
		{CodeOverloaded, http.StatusTooManyRequests, true},
		{CodeUnavailable, http.StatusServiceUnavailable, true},
		{CodeDeadlineExceeded, http.StatusGatewayTimeout, true},
		{CodeInternal, http.StatusInternalServerError, false},
	}
	for _, c := range cases {
		e := Errorf(c.code, "x")
		if got := e.HTTPStatus(); got != c.status {
			t.Errorf("%s: status %d, want %d", c.code, got, c.status)
		}
		if e.Retryable != c.retryable {
			t.Errorf("%s: retryable %v, want %v", c.code, e.Retryable, c.retryable)
		}
		if got := CodeForStatus(c.status); got != c.code {
			t.Errorf("CodeForStatus(%d) = %s, want %s", c.status, got, c.code)
		}
	}
	if got := CodeForStatus(http.StatusTeapot); got != CodeInternal {
		t.Errorf("unknown status mapped to %s", got)
	}
	// CodeCanceled shares 503 with CodeUnavailable on the way out; the
	// reverse mapping prefers unavailable (see CodeForStatus).
	e := Errorf(CodeCanceled, "x")
	if got := e.HTTPStatus(); got != http.StatusServiceUnavailable {
		t.Errorf("canceled: status %d, want 503", got)
	}
	if !e.Retryable {
		t.Error("canceled not retryable")
	}
}

// TestFromErr covers the error coercion rules.
func TestFromErr(t *testing.T) {
	orig := Errorf(CodeNotFound, "gone")
	if got := FromErr(orig); got != orig {
		t.Error("FromErr did not pass *Error through")
	}
	if got := FromErr(context.Canceled); got.Code != CodeCanceled || !got.Retryable {
		t.Errorf("canceled → %+v", got)
	}
	if got := FromErr(context.DeadlineExceeded); got.Code != CodeDeadlineExceeded {
		t.Errorf("deadline → %+v", got)
	}
	if got := FromErr(errors.New("boom")); got.Code != CodeInternal || got.Message != "boom" {
		t.Errorf("opaque → %+v", got)
	}
}

// TestErrorEnvelopeRoundTrip checks the wire shape is stable through
// JSON, details included.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	e := Errorf(CodeOverloaded, "full").WithDetail("retryAfter", "1")
	raw, err := json.Marshal(ErrorEnvelope{Error: e})
	if err != nil {
		t.Fatal(err)
	}
	var back ErrorEnvelope
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Error.Code != CodeOverloaded || !back.Error.Retryable || back.Error.Details["retryAfter"] != "1" {
		t.Errorf("round-tripped envelope = %+v", back.Error)
	}
	// WithDetail must not mutate the receiver.
	if len(Errorf(CodeOverloaded, "full").Details) != 0 {
		t.Error("Errorf produced details")
	}
}

// TestMatchRequestJSONRoundTrip pins the request wire shape: optional
// fields are omitted, pointers survive.
func TestMatchRequestJSONRoundTrip(t *testing.T) {
	raw, err := json.Marshal(MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"pair":"pt-en"}` {
		t.Errorf("minimal request marshals to %s", raw)
	}
	full := MatchRequest{All: true, Mode: "direct", Hub: "en", Workers: 2, TSim: f64(0.7)}
	raw, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back MatchRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !back.All || back.Mode != "direct" || back.TSim == nil || *back.TSim != 0.7 {
		t.Errorf("round-tripped request = %+v", back)
	}
}

// TestMatchAllResponsePlan reconstructs a plan from the wire response.
func TestMatchAllResponsePlan(t *testing.T) {
	resp := MatchAllResponse{Mode: "pivot", Hub: "en", Planned: []string{"pt-en", "vi-en"}}
	plan, err := resp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != multi.ModePivot || plan.Hub != wiki.English || len(plan.Pairs) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	if !plan.Contains(wiki.Portuguese, wiki.English) || plan.Contains(wiki.Portuguese, wiki.Vietnamese) {
		t.Error("plan membership wrong")
	}
	if _, err := (&MatchAllResponse{Mode: "bogus"}).Plan(); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := (&MatchAllResponse{Mode: "pivot", Hub: "en", Planned: []string{"xx"}}).Plan(); err == nil {
		t.Error("bad planned pair accepted")
	}
}

// TestMatchResponseResult checks the wire→core reconstruction the
// router's scatter-gather path rests on: a MatchResponse round-trips
// into a core.Result that preserves the type alignment, the cross sets
// and the exact float64 confidences.
func TestMatchResponseResult(t *testing.T) {
	resp := &MatchResponse{
		Pair:  "pt-en",
		Types: [][2]string{{"cidade", "city"}, {"filme", "film"}},
		Results: []TypeResult{
			{
				TypeA: "cidade", TypeB: "city",
				Correspondences: []Correspondence{
					{A: "nome", B: "name", Confidence: 0.9381695036041293},
					{A: "área", B: "area", Confidence: 0.5935862876098503},
				},
			},
			{TypeA: "filme", TypeB: "film"},
		},
	}
	res, err := resp.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pair != wiki.PtEn {
		t.Errorf("pair = %v", res.Pair)
	}
	if len(res.Types) != 2 || res.Types[0] != [2]string{"cidade", "city"} {
		t.Errorf("types = %v", res.Types)
	}
	tr := res.PerType[[2]string{"cidade", "city"}]
	if tr == nil {
		t.Fatal("missing reconstructed type result")
	}
	if !tr.Cross["nome"]["name"] || !tr.Cross["área"]["area"] {
		t.Errorf("cross = %v", tr.Cross)
	}
	if got := tr.Confidence("nome", "name"); got != 0.9381695036041293 {
		t.Errorf("confidence = %v (want the exact wire float)", got)
	}
	if got := tr.Confidence("nome", "missing"); got != 0 {
		t.Errorf("absent pair confidence = %v", got)
	}
	if empty := res.PerType[[2]string{"filme", "film"}]; empty == nil || len(empty.Cross) != 0 {
		t.Errorf("empty type result = %+v", empty)
	}
	if _, err := (&MatchResponse{Pair: "bogus"}).Result(); err == nil {
		t.Error("invalid pair accepted")
	}
}

// TestCacheStatsAddSumsEveryField sets every field of two CacheStats to
// distinct values by reflection, so a field added later that Add does
// not sum fails here instead of vanishing from fleet totals.
func TestCacheStatsAddSumsEveryField(t *testing.T) {
	var a, b CacheStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		setNumber(t, va.Field(i), va.Type().Field(i).Name, 10*(i+1))
		setNumber(t, vb.Field(i), va.Type().Field(i).Name, i+1)
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Field(i)
		var got int64
		if f.CanInt() {
			got = f.Int()
		} else {
			got = int64(f.Uint())
		}
		if want := int64(11 * (i + 1)); got != want {
			t.Errorf("%s: Add gave %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

func setNumber(t *testing.T, f reflect.Value, name string, v int) {
	t.Helper()
	switch {
	case f.CanInt():
		f.SetInt(int64(v))
	case f.CanUint():
		f.SetUint(uint64(v))
	default:
		t.Fatalf("CacheStats.%s is a %s; teach Add and this test to sum it", name, f.Kind())
	}
}
