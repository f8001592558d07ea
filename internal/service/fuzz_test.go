package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// FuzzDecodeMatchRequest feeds raw request bodies through the /v1/match
// decode path: DecodeBody, then MatchRequest.Validate. Neither may
// panic, and every rejection must be a *protocol.Error with
// invalid_argument, as Validate documents. Run with:
//
//	go test -run='^$' -fuzz='^FuzzDecodeMatchRequest$' -fuzztime=20s ./internal/service
func FuzzDecodeMatchRequest(f *testing.F) {
	for _, gc := range v1GoldenCases() {
		f.Add(gc.body)
	}
	trailing := []string{
		`{"pair":"pt-en"} {"pair":"vi-en"}`,
		`{"pair":"pt-en"}garbage`,
		`{"all":true}]`,
	}
	// Fields the protocol no longer carries must be refused as unknown,
	// not silently dropped.
	removed := []string{
		`{"pair":"pt-en","candidates":4}`,
		`{"exactScore":true}`,
	}
	for _, body := range append(trailing, removed...) {
		f.Add(body)
	}
	for _, body := range removed {
		_, e := decodeMatch(body)
		if e == nil || e.Code != protocol.CodeInvalidArgument || !strings.Contains(e.Message, "unknown field") {
			f.Fatalf("body %s: got %v, want an invalid_argument unknown-field error", body, e)
		}
	}

	f.Fuzz(func(t *testing.T, body string) {
		req, e := decodeMatch(body)
		if e != nil {
			if e.Code != protocol.CodeInvalidArgument {
				t.Fatalf("body %q: decode error code %s, want %s", body, e.Code, protocol.CodeInvalidArgument)
			}
			return
		}
		if _, err := req.Validate(); err != nil {
			var pe *protocol.Error
			if !errors.As(err, &pe) || pe.Code != protocol.CodeInvalidArgument {
				t.Fatalf("body %q: Validate error %v (%T), want an invalid_argument *protocol.Error", body, err, err)
			}
		}
	})
}

// FuzzDecodeAuditRequest feeds raw request bodies through the /v1/audit
// decode path: DecodeBody, then AuditRequest.Validate. Neither may
// panic, and every rejection must be a *protocol.Error with
// invalid_argument. Run with:
//
//	go test -run='^$' -fuzz='^FuzzDecodeAuditRequest$' -fuzztime=20s ./internal/service
func FuzzDecodeAuditRequest(f *testing.F) {
	for _, gc := range v1GoldenCases() {
		if strings.HasPrefix(gc.path, "/v1/audit") {
			f.Add(gc.body)
		}
	}
	for _, body := range []string{
		`{"clusters":[]}`,
		`{"clusters":[{"id":0,"languages":["en","pt"],"types":{"en":["film"],"pt":["filme"]},` +
			`"members":[{"lang":"en","type":"film","name":"director"},{"lang":"pt","type":"filme","name":"direção"}],` +
			`"correspondences":[{"a":{"lang":"pt","type":"filme","name":"direção"},` +
			`"b":{"lang":"en","type":"film","name":"director"},"confidence":0.9,"direct":true,"supported":true}],` +
			`"agreement":1}],"limit":3}`,
		`{"clusters":null,"mode":"direct","hub":"pt","workers":2}`,
		`{"pair":"pt-en","minSeverity":-0.1}`,
		`{"limit":-1}`,
		`{"minSeverity":0.5} {"limit":1}`,
		`{"limit":1e400}`,
	} {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body string) {
		req, e := decodeAudit(body)
		if e != nil {
			if e.Code != protocol.CodeInvalidArgument {
				t.Fatalf("body %q: decode error code %s, want %s", body, e.Code, protocol.CodeInvalidArgument)
			}
			return
		}
		if _, err := req.Validate(); err != nil {
			var pe *protocol.Error
			if !errors.As(err, &pe) || pe.Code != protocol.CodeInvalidArgument {
				t.Fatalf("body %q: Validate error %v (%T), want an invalid_argument *protocol.Error", body, err, err)
			}
		}
	})
}

// decodeAudit decodes body the way the /v1/audit handler does.
func decodeAudit(body string) (protocol.AuditRequest, *protocol.Error) {
	var req protocol.AuditRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/audit", strings.NewReader(body))
	e := DecodeBody(r, &req)
	return req, e
}

// decodeMatch decodes body the way the /v1/match handler does.
func decodeMatch(body string) (protocol.MatchRequest, *protocol.Error) {
	var req protocol.MatchRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader(body))
	e := DecodeBody(r, &req)
	return req, e
}
