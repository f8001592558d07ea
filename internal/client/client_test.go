package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

func TestNewRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "localhost:8080", "/relative"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	if _, err := New("http://localhost:8080/"); err != nil {
		t.Errorf("New rejected a valid URL: %v", err)
	}
}

// TestUnaryRetriesRetryable serves two 429 envelopes before a success
// and expects the client to push through them, honouring Retry-After
// only as a floor it can afford.
func TestUnaryRetriesRetryable(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(protocol.ErrorEnvelope{Error: protocol.Errorf(protocol.CodeOverloaded, "full")})
			return
		}
		_ = json.NewEncoder(w).Encode(protocol.MatchResponse{Pair: "pt-en"})
	}))
	defer srv.Close()

	c, err := New(srv.URL, WithRetries(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Match(context.Background(), protocol.MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatalf("Match after retries: %v", err)
	}
	if resp.Pair != "pt-en" || calls.Load() != 3 {
		t.Errorf("resp=%+v calls=%d", resp, calls.Load())
	}
}

// TestUnaryReusesConnection: the server sends a chunked body whose
// terminating chunk comes well after the JSON value. The client must
// read the body to its end rather than close it after the value, or its
// transport drops the connection and every call dials a new one.
func TestUnaryReusesConnection(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(protocol.MatchResponse{Pair: "pt-en"})
		w.(http.Flusher).Flush()
		time.Sleep(5 * time.Millisecond) // the terminating chunk follows the handler's return
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 10
	for i := 0; i < calls; i++ {
		if _, err := c.Match(context.Background(), protocol.MatchRequest{Pair: "pt-en"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d sequential calls opened %d connections, want 1", calls, n)
	}
}

// TestUnaryDoesNotRetryNonRetryable: a 400 envelope must surface
// immediately as a typed error.
func TestUnaryDoesNotRetryNonRetryable(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(protocol.ErrorEnvelope{Error: protocol.Errorf(protocol.CodeInvalidArgument, "nope")})
	}))
	defer srv.Close()

	c, _ := New(srv.URL, WithRetries(3, time.Millisecond))
	_, err := c.Match(context.Background(), protocol.MatchRequest{})
	pe, ok := err.(*protocol.Error)
	if !ok {
		t.Fatalf("error %T, want *protocol.Error", err)
	}
	if pe.Code != protocol.CodeInvalidArgument || pe.Message != "nope" {
		t.Errorf("error = %+v", pe)
	}
	if calls.Load() != 1 {
		t.Errorf("retried a non-retryable error %d times", calls.Load()-1)
	}
}

// TestEnvelopeLessErrorSynthesized: a proxy-style plain-text error page
// still becomes a typed error with the status-derived code.
func TestEnvelopeLessErrorSynthesized(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()

	c, _ := New(srv.URL, WithRetries(0, time.Millisecond))
	_, err := c.Stats(context.Background())
	pe, ok := err.(*protocol.Error)
	if !ok {
		t.Fatalf("error %T, want *protocol.Error", err)
	}
	if pe.Code != protocol.CodeInternal {
		t.Errorf("code = %s", pe.Code)
	}
}

// TestStreamIterator walks a fake NDJSON stream through Next/Line/Err,
// blank lines and all.
func TestStreamIterator(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"done":1,"total":2,"pair":{"pair":"pt-en","types":3,"correspondences":9,"elapsedMs":0}}`)
		fmt.Fprintln(w)
		fmt.Fprintln(w, `{"done":2,"total":2,"finalAll":{"mode":"pivot","hub":"en","planned":[],"pairs":null,"clusters":[],"conflicts":0,"elapsedMs":0,"cache":{"pairEntries":0,"typeEntries":0,"hits":0,"misses":0,"restoredPairs":0,"restoredTypes":0}}}`)
	}))
	defer srv.Close()

	c, _ := New(srv.URL)
	stream, err := c.Stream(context.Background(), protocol.MatchRequest{All: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	if !stream.Next() {
		t.Fatalf("first Next failed: %v", stream.Err())
	}
	if p := stream.Line().Pair; p == nil || p.Pair != "pt-en" || p.Correspondences != 9 {
		t.Errorf("first line = %+v", stream.Line())
	}
	if !stream.Next() {
		t.Fatalf("second Next failed: %v", stream.Err())
	}
	if stream.Line().FinalAll == nil || stream.Line().FinalAll.Mode != "pivot" {
		t.Errorf("final line = %+v", stream.Line())
	}
	if stream.Next() {
		t.Error("Next past end of stream")
	}
	if err := stream.Err(); err != nil {
		t.Errorf("clean stream ended with %v", err)
	}
	if stream.Next() {
		t.Error("Next after done")
	}
}

// TestStreamDecodeError: garbage mid-stream surfaces through Err.
func TestStreamDecodeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"done":1,"total":1}`)
		fmt.Fprintln(w, `{{{not json`)
	}))
	defer srv.Close()

	c, _ := New(srv.URL)
	stream, err := c.Stream(context.Background(), protocol.MatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if !stream.Next() {
		t.Fatal("first line rejected")
	}
	if stream.Next() {
		t.Error("garbage line accepted")
	}
	if stream.Err() == nil {
		t.Error("decode error swallowed")
	}
}

// TestStreamErrorStatus: a non-200 on /v1/stream decodes the envelope
// instead of returning an iterator.
func TestStreamErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(protocol.ErrorEnvelope{Error: protocol.Errorf(protocol.CodeInvalidArgument, "bad stream")})
	}))
	defer srv.Close()

	c, _ := New(srv.URL)
	_, err := c.Stream(context.Background(), protocol.MatchRequest{})
	pe, ok := err.(*protocol.Error)
	if !ok || pe.Code != protocol.CodeInvalidArgument {
		t.Fatalf("err = %v", err)
	}
}

// TestRequestShape pins what the client actually puts on the wire:
// method, path, content type, and the typed body.
func TestRequestShape(t *testing.T) {
	type seen struct {
		method, path, contentType string
		body                      protocol.MatchRequest
	}
	var got seen
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = seen{method: r.Method, path: r.URL.Path, contentType: r.Header.Get("Content-Type")}
		_ = json.NewDecoder(r.Body).Decode(&got.body)
		_ = json.NewEncoder(w).Encode(protocol.MatchAllResponse{Mode: "pivot"})
	}))
	defer srv.Close()

	c, _ := New(srv.URL)
	th := 0.7
	if _, err := c.MatchAll(context.Background(), protocol.MatchRequest{All: true, Mode: "direct", TSim: &th}); err != nil {
		t.Fatal(err)
	}
	if got.method != http.MethodPost || got.path != "/v1/matchall" || got.contentType != "application/json" {
		t.Errorf("request = %+v", got)
	}
	if !got.body.All || got.body.Mode != "direct" || got.body.TSim == nil || *got.body.TSim != 0.7 {
		t.Errorf("body = %+v", got.body)
	}
}

// TestRetryDecodesFresh: a corrupt 200 body on attempt one must not
// bleed partially-decoded state (map keys, stale fields) into the
// retry's successful decode.
func TestRetryDecodesFresh(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Truncated body: decodes byRoute before failing.
			fmt.Fprint(w, `{"requestsTotal":5,"byRoute":{"stale":1},"inFlight":`)
			return
		}
		fmt.Fprint(w, `{"requestsTotal":7,"inFlight":0,"shed":0,"panics":0}`)
	}))
	defer srv.Close()

	c, _ := New(srv.URL, WithRetries(1, time.Millisecond))
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics after retry: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d", calls.Load())
	}
	if m.RequestsTotal != 7 {
		t.Errorf("requestsTotal = %d, want 7", m.RequestsTotal)
	}
	if len(m.ByRoute) != 0 {
		t.Errorf("stale byRoute keys survived the retry: %v", m.ByRoute)
	}
}

// TestHedgeRacesSlowPrimary: with hedging enabled, a slow first request
// is raced by a backup after the hedge delay, and the backup's fast
// success wins without waiting out the primary.
func TestHedgeRacesSlowPrimary(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Primary: stall until the test ends.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		_ = json.NewEncoder(w).Encode(protocol.MatchResponse{Pair: "vi-en"})
	}))
	defer srv.Close()
	defer close(release)

	c, _ := New(srv.URL, WithRetries(0, time.Millisecond), WithHedge(5*time.Millisecond))
	resp, err := c.Match(context.Background(), protocol.MatchRequest{Pair: "vi-en"})
	if err != nil {
		t.Fatalf("hedged Match: %v", err)
	}
	if resp.Pair != "vi-en" || calls.Load() != 2 {
		t.Errorf("resp=%+v calls=%d", resp, calls.Load())
	}
}

// TestHedgeFiresOnRetryableFailure: a fast retryable failure of the
// primary launches the backup immediately instead of waiting out the
// hedge delay; the backup's success is the call's result.
func TestHedgeFiresOnRetryableFailure(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(protocol.ErrorEnvelope{Error: protocol.Errorf(protocol.CodeUnavailable, "shard down")})
			return
		}
		_ = json.NewEncoder(w).Encode(protocol.MatchResponse{Pair: "pt-en"})
	}))
	defer srv.Close()

	// Hedge delay far beyond the test's patience: only the fast-fail
	// path can launch the backup in time.
	c, _ := New(srv.URL, WithRetries(0, time.Millisecond), WithHedge(time.Hour))
	resp, err := c.Match(context.Background(), protocol.MatchRequest{Pair: "pt-en"})
	if err != nil {
		t.Fatalf("hedged Match: %v", err)
	}
	if resp.Pair != "pt-en" || calls.Load() != 2 {
		t.Errorf("resp=%+v calls=%d", resp, calls.Load())
	}
}

// TestHedgeBothFailReturnsPrimaryError: when primary and backup both
// fail, the primary's error surfaces (deterministic attribution).
func TestHedgeBothFailReturnsPrimaryError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(protocol.ErrorEnvelope{Error: protocol.Errorf(protocol.CodeUnavailable, "all dead")})
	}))
	defer srv.Close()

	c, _ := New(srv.URL, WithRetries(0, time.Millisecond), WithHedge(time.Millisecond))
	_, err := c.Match(context.Background(), protocol.MatchRequest{})
	pe, ok := err.(*protocol.Error)
	if !ok {
		t.Fatalf("error %T, want *protocol.Error", err)
	}
	if pe.Code != protocol.CodeUnavailable {
		t.Errorf("code = %s", pe.Code)
	}
}

// TestMutatingCallsNeverHedge: Delta must issue exactly one request even
// on a hedging client whose delay has long elapsed.
func TestMutatingCallsNeverHedge(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // well past the hedge delay
		_ = json.NewEncoder(w).Encode(protocol.DeltaResponse{Added: 1})
	}))
	defer srv.Close()

	c, _ := New(srv.URL, WithRetries(0, time.Millisecond), WithHedge(time.Millisecond))
	resp, err := c.Delta(context.Background(), protocol.DeltaRequest{
		Upserts: []protocol.DeltaUpsert{{Lang: "en", Title: "X", Wikitext: ""}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Added != 1 || calls.Load() != 1 {
		t.Errorf("resp=%+v calls=%d (mutating call hedged?)", resp, calls.Load())
	}
}

// TestRetryBackoffJitter: the retry delay is drawn from [base/2, base]
// with a Retry-After floor. The jitter hook is deterministic here, so
// the exact waits are assertable.
func TestRetryBackoffJitter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(protocol.ErrorEnvelope{Error: protocol.Errorf(protocol.CodeOverloaded, "full")})
			return
		}
		_ = json.NewEncoder(w).Encode(protocol.MatchResponse{Pair: "pt-en"})
	}))
	defer srv.Close()

	c, _ := New(srv.URL, WithRetries(1, 10*time.Millisecond))
	var spans []time.Duration
	c.jitter = func(span time.Duration) time.Duration {
		spans = append(spans, span)
		return span // deterministic top of the jitter window
	}
	start := time.Now()
	if _, err := c.Match(context.Background(), protocol.MatchRequest{}); err != nil {
		t.Fatal(err)
	}
	// One retry at full jitter: delay = base/2 + base/2 = 10ms.
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("retried after %v, want >= 10ms", elapsed)
	}
	// The backoff span and the Retry-After span (0s ⇒ no floor call may
	// be skipped) were both consulted.
	if len(spans) == 0 || spans[0] != 5*time.Millisecond {
		t.Errorf("jitter spans = %v, want first span 5ms (base/2)", spans)
	}
}

// TestRequestIDForwarded: a context stamped with a request ID (the
// service middleware's doing on a router) reaches the server as the
// X-Request-Id header; an unstamped context sends none, and an invalid
// stamp is dropped.
func TestRequestIDForwarded(t *testing.T) {
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Request-Id"))
		_ = json.NewEncoder(w).Encode(protocol.Health{Status: "ok"})
	}))
	defer srv.Close()

	c, _ := New(srv.URL, WithRetries(0, time.Millisecond))
	cases := []struct {
		id   string
		want string
	}{
		{"req-42", "req-42"},
		{"", ""},
		{"bad\nid", ""},
	}
	for _, tc := range cases {
		ctx := context.Background()
		if tc.id != "" {
			ctx = protocol.ContextWithRequestID(ctx, tc.id)
		}
		if _, err := c.Healthz(ctx); err != nil {
			t.Fatal(err)
		}
		if got.Load().(string) != tc.want {
			t.Errorf("id %q: header %q, want %q", tc.id, got.Load(), tc.want)
		}
	}
}

// TestLocalDelta: the in-process backend serves Delta through the same
// session path as the HTTP handler.
func TestLocalDelta(t *testing.T) {
	c := wiki.NewCorpus()
	if err := c.Add(&wiki.Article{Language: wiki.English, Title: "Seed", Type: "city"}); err != nil {
		t.Fatal(err)
	}
	l := NewLocal(service.New(c))
	resp, err := l.Delta(context.Background(), protocol.DeltaRequest{
		Removes: []protocol.DeltaRef{{Lang: "en", Title: "Seed"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Removed != 1 {
		t.Errorf("removed = %d, want 1", resp.Removed)
	}
}

// TestLocalInvalidateMatchesHTTP: invalidating a language through the
// in-process backend reports the same per-kind breakdown as
// /v1/invalidate does over HTTP on an identically warmed session.
func TestLocalInvalidateMatchesHTTP(t *testing.T) {
	c, _, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	warm := func() *service.Session {
		s := service.New(c)
		for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
			if _, err := s.Match(ctx, pair); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	local, err := NewLocal(warm()).Invalidate(ctx, "vi")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(warm()))
	defer srv.Close()
	cl, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cl.Invalidate(ctx, "vi")
	if err != nil {
		t.Fatal(err)
	}
	if remote.Pairs == 0 || remote.Types == 0 {
		t.Fatalf("warm invalidate dropped nothing: %+v", remote)
	}
	if *local != *remote {
		t.Errorf("Local.Invalidate = %+v, /v1/invalidate = %+v", *local, *remote)
	}
}
