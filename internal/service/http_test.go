package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/text"
)

// startServer spins up the full HTTP API over a session on the small
// generated corpus.
func startServer(t *testing.T) (*httptest.Server, *Session) {
	t.Helper()
	s := New(smallCorpus(t))
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return srv, s
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// postJSON posts body and decodes the answer, failing the test on an
// unexpected status.
func postJSON(t *testing.T, url, body string, wantStatus int, into any) {
	t.Helper()
	if got := postEnvelope(t, url, body, into); got != wantStatus {
		t.Fatalf("POST %s %s: status %d, want %d", url, body, got, wantStatus)
	}
}

// TestHTTPMatchEndToEnd drives /v1/corpus, /v1/match (pair and single
// type) and the NDJSON stream against a generated corpus through a real
// HTTP round-trip.
func TestHTTPMatchEndToEnd(t *testing.T) {
	srv, _ := startServer(t)

	// Corpus stats.
	var stats protocol.StatsResponse
	getJSON(t, srv.URL+"/v1/corpus", http.StatusOK, &stats)
	if stats.Corpus.Articles["pt"] == 0 || stats.Corpus.Articles["en"] == 0 {
		t.Fatalf("stats missing articles: %+v", stats.Corpus.Articles)
	}
	if stats.Config.TSim != 0.6 {
		t.Errorf("config TSim = %v over the wire", stats.Config.TSim)
	}

	// Full match.
	var match protocol.MatchResponse
	postJSON(t, srv.URL+"/v1/match", `{"pair":"pt-en"}`, http.StatusOK, &match)
	if match.Pair != "pt-en" || len(match.Types) == 0 || len(match.Results) != len(match.Types) {
		t.Fatalf("bad match response: pair=%s types=%d results=%d",
			match.Pair, len(match.Types), len(match.Results))
	}
	found := false
	for _, r := range match.Results {
		if r.TypeA != "filme" {
			continue
		}
		for _, corr := range r.Correspondences {
			if corr.A == text.Normalize("direção") && corr.B == "directed by" {
				found = true
				if corr.Confidence <= 0 || corr.Confidence > 1 {
					t.Errorf("confidence out of range: %v", corr.Confidence)
				}
			}
		}
	}
	if !found {
		t.Error("direção ~ directed by correspondence missing from /v1/match output")
	}
	if match.Cache.TypeEntries == 0 {
		t.Errorf("cache stats not populated: %+v", match.Cache)
	}

	// Warm repeat must hit the cache.
	var warm protocol.MatchResponse
	postJSON(t, srv.URL+"/v1/match", `{"pair":"pt-en"}`, http.StatusOK, &warm)
	if warm.Cache.Hits <= match.Cache.Hits {
		t.Errorf("second /v1/match did not hit the cache: %d → %d hits",
			match.Cache.Hits, warm.Cache.Hits)
	}

	// Single type.
	var single protocol.MatchResponse
	postJSON(t, srv.URL+"/v1/match", `{"pair":"pt-en","type":"filme"}`, http.StatusOK, &single)
	if len(single.Results) != 1 {
		t.Fatalf("single-type match returned %d results", len(single.Results))
	}
	if one := single.Results[0]; one.TypeA != "filme" || one.TypeB != "film" || len(one.Correspondences) == 0 {
		t.Errorf("bad single-type filme response: %+v", one)
	}

	// NDJSON stream: one type line per type, same types as the full
	// match, then the final summary.
	resp, err := http.Post(srv.URL+"/v1/stream", "application/json", strings.NewReader(`{"pair":"pt-en"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	streamed := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	finals := 0
	for sc.Scan() {
		var line protocol.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Type != nil:
			streamed[line.Type.TypeA] = len(line.Type.Correspondences)
		case line.FinalMatch != nil:
			finals++
		default:
			t.Fatalf("unexpected NDJSON line: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if finals != 1 {
		t.Errorf("stream carried %d final lines, want 1", finals)
	}
	if len(streamed) != len(match.Types) {
		t.Fatalf("streamed %d types, want %d", len(streamed), len(match.Types))
	}
	for _, r := range match.Results {
		if streamed[r.TypeA] != len(r.Correspondences) {
			t.Errorf("type %s: stream has %d correspondences, /v1/match has %d",
				r.TypeA, streamed[r.TypeA], len(r.Correspondences))
		}
	}
}

// TestHTTPVnEnAndErrors covers the second pair, bad inputs, and cache
// invalidation over the wire.
func TestHTTPVnEnAndErrors(t *testing.T) {
	srv, sess := startServer(t)

	var match protocol.MatchResponse
	postJSON(t, srv.URL+"/v1/match", `{"pair":"vi-en"}`, http.StatusOK, &match)
	if match.Pair != "vi-en" || len(match.Types) == 0 {
		t.Fatalf("bad vi-en response: %+v", match.Pair)
	}
	// The vn-en alias resolves to the same pair.
	var alias protocol.MatchResponse
	postJSON(t, srv.URL+"/v1/match", `{"pair":"vn-en"}`, http.StatusOK, &alias)
	if alias.Pair != "vi-en" {
		t.Errorf("vn-en alias resolved to %q", alias.Pair)
	}

	postJSON(t, srv.URL+"/v1/match", `{"pair":"bogus"}`, http.StatusBadRequest, nil)
	postJSON(t, srv.URL+"/v1/match", `{"pair":"pt-en","type":"definitely-not-a-type"}`, http.StatusNotFound, nil)

	// Invalidate Vietnamese artifacts over the wire.
	var inv protocol.InvalidateResponse
	postJSON(t, srv.URL+"/v1/invalidate", `{"lang":"vi"}`, http.StatusOK, &inv)
	if inv.Dropped == 0 {
		t.Error("invalidate dropped nothing")
	}
	// The vi-en entries are gone; the pt-en pair entry (created by the
	// single-type lookup above) survives.
	if st := sess.CacheStats(); st.PairEntries != 1 {
		t.Errorf("pair entries after Invalidate(vi) = %d, want 1: %+v", st.PairEntries, st)
	}

	postJSON(t, srv.URL+"/v1/invalidate", `{"lang":"UPPER"}`, http.StatusBadRequest, nil)
}

// TestParsePair table-tests the pair parser.
// TestHTTPUnaryBodiesHaveLength: unary answers, errors included, carry
// a Content-Length and are not chunked, so a client that reads exactly
// the JSON value has read the whole body and keeps its connection.
func TestHTTPUnaryBodiesHaveLength(t *testing.T) {
	srv, _ := startServer(t)
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/match", `{"pair":"pt-en"}`},
		{"GET", "/v1/corpus", ""},
		{"POST", "/v1/match", `{"pair":"xx"}`},
		{"GET", "/match", ""},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: read: %v", c.method, c.path, err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
			t.Errorf("%s %s (status %d): transfer encoding %v, content length %d for a %d-byte body",
				c.method, c.path, resp.StatusCode, resp.TransferEncoding, resp.ContentLength, len(raw))
		}
		if !json.Valid(raw) || raw[len(raw)-1] != '\n' {
			t.Errorf("%s %s: body is not one newline-terminated JSON value: %q", c.method, c.path, raw)
		}
	}
}

func TestParsePair(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"pt-en", "pt-en", true},
		{"vi-en", "vi-en", true},
		{"vn-en", "vi-en", true},
		{"de-fr", "de-fr", true},
		{"", "", false},
		{"pten", "", false},
		{"PT-EN", "", false},
		{"pt-", "", false},
	}
	for _, c := range cases {
		pair, err := protocol.ParsePair(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePair(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && pair.String() != c.want {
			t.Errorf("ParsePair(%q) = %s, want %s", c.in, pair, c.want)
		}
	}
	if got := fmt.Sprint(must(protocol.ParsePair("vn-en"))); got != "vi-en" {
		t.Errorf("alias: %s", got)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
