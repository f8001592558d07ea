// Package client is the Go SDK for the WikiMatch wire protocol v1: a
// typed HTTP client for a running wikimatchd (unary calls, a streaming
// NDJSON iterator, and automatic retries on retryable error codes), and
// an in-process Local backend that serves the same interface straight
// from a service.Session. Callers written against Backend run
// identically in process and over the network — cmd/wikimatch's -remote
// flag is exactly that switch.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/protocol"
)

// Backend is the protocol surface shared by the remote Client and the
// in-process Local backend.
type Backend interface {
	// Match runs a pair or single-type request.
	Match(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchResponse, error)
	// MatchAll runs an all-pairs batch request.
	MatchAll(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchAllResponse, error)
	// Stream runs a pair or all-pairs request with streamed progress.
	Stream(ctx context.Context, req protocol.MatchRequest) (*Stream, error)
	// Audit runs a cross-edition value-consistency audit.
	Audit(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error)
	// AuditStream runs an audit with streamed progress and findings.
	AuditStream(ctx context.Context, req protocol.AuditRequest) (*Stream, error)
	// Stats snapshots the server's corpus, cache and configuration.
	Stats(ctx context.Context) (*protocol.StatsResponse, error)
	// Invalidate drops cached artifacts for a language ("" = all).
	Invalidate(ctx context.Context, lang string) (*protocol.InvalidateResponse, error)
	// Delta applies article upserts/removes to the live corpus.
	Delta(ctx context.Context, req protocol.DeltaRequest) (*protocol.DeltaResponse, error)
}

// Client speaks wire protocol v1 to a wikimatchd base URL.
type Client struct {
	base       string
	httpClient *http.Client
	maxRetries int
	backoff    time.Duration
	hedgeDelay time.Duration
	userAgent  string
	// jitter returns a random duration in [0, span], the spread added to
	// retry backoff so a fleet of clients released by the same outage
	// does not retry in lockstep. Replaceable in tests for determinism.
	jitter func(span time.Duration) time.Duration
}

// Option adjusts a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpClient = h } }

// WithRetries sets how many times a retryable failure is retried
// (default 2) and the base backoff delay between attempts (default
// 250ms; doubled per attempt and jittered — see unary — with the
// server's Retry-After as a floor).
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Client) { c.maxRetries, c.backoff = n, backoff }
}

// WithHedge enables hedged requests for read-only unary calls (Match,
// MatchAll, Stats, Healthz, Metrics): when no response has arrived
// after delay — or the first attempt failed with a retryable error
// while the backup was still unfired — an identical second request is
// issued and the first success wins; the loser is cancelled. Mutating
// calls (Invalidate, Delta) and streams never hedge. 0 (the default)
// disables hedging. A hedged exchange counts as one attempt against
// the retry budget.
func WithHedge(delay time.Duration) Option {
	return func(c *Client) { c.hedgeDelay = delay }
}

// WithUserAgent sets the User-Agent header.
func WithUserAgent(ua string) Option { return func(c *Client) { c.userAgent = ua } }

// New creates a client for a wikimatchd base URL ("http://host:8080").
func New(base string, opts ...Option) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", base)
	}
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		httpClient: http.DefaultClient,
		maxRetries: 2,
		backoff:    250 * time.Millisecond,
		userAgent:  "wikimatch-client/" + protocol.Version,
		jitter: func(span time.Duration) time.Duration {
			if span <= 0 {
				return 0
			}
			return time.Duration(rand.Int64N(int64(span) + 1))
		},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Match implements Backend over POST /v1/match.
func (c *Client) Match(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchResponse, error) {
	var out protocol.MatchResponse
	if err := c.unary(ctx, http.MethodPost, "/v1/match", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// MatchAll implements Backend over POST /v1/matchall.
func (c *Client) MatchAll(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchAllResponse, error) {
	var out protocol.MatchAllResponse
	if err := c.unary(ctx, http.MethodPost, "/v1/matchall", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Audit implements Backend over POST /v1/audit.
func (c *Client) Audit(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error) {
	var out protocol.AuditResponse
	if err := c.unary(ctx, http.MethodPost, "/v1/audit", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// AuditStream implements Backend over POST /v1/audit/stream. Like
// Stream, the result must be closed and failures are not retried.
func (c *Client) AuditStream(ctx context.Context, req protocol.AuditRequest) (*Stream, error) {
	return c.openStream(ctx, "/v1/audit/stream", req)
}

// Stats implements Backend over GET /v1/corpus.
func (c *Client) Stats(ctx context.Context) (*protocol.StatsResponse, error) {
	var out protocol.StatsResponse
	if err := c.unary(ctx, http.MethodGet, "/v1/corpus", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Invalidate implements Backend over POST /v1/invalidate.
func (c *Client) Invalidate(ctx context.Context, lang string) (*protocol.InvalidateResponse, error) {
	var out protocol.InvalidateResponse
	if err := c.unary(ctx, http.MethodPost, "/v1/invalidate", protocol.InvalidateRequest{Lang: lang}, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes GET /v1/healthz.
func (c *Client) Healthz(ctx context.Context) (*protocol.Health, error) {
	var out protocol.Health
	if err := c.unary(ctx, http.MethodGet, "/v1/healthz", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics reads GET /v1/metrics.
func (c *Client) Metrics(ctx context.Context) (*protocol.Metrics, error) {
	var out protocol.Metrics
	if err := c.unary(ctx, http.MethodGet, "/v1/metrics", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delta implements Backend over POST /v1/corpus/delta. Deltas are
// mutations, so they are never hedged; they are retried like any unary
// call — applying the same delta twice converges to the same corpus
// (upserts and removes are absolute), so a retry after an ambiguous
// transport failure is safe.
func (c *Client) Delta(ctx context.Context, req protocol.DeltaRequest) (*protocol.DeltaResponse, error) {
	var out protocol.DeltaResponse
	if err := c.unary(ctx, http.MethodPost, "/v1/corpus/delta", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stream implements Backend over POST /v1/stream. The returned Stream
// must be closed. Streams are not retried: a failure mid-stream would
// replay lines the consumer already acted on.
func (c *Client) Stream(ctx context.Context, req protocol.MatchRequest) (*Stream, error) {
	return c.openStream(ctx, "/v1/stream", req)
}

// openStream opens one NDJSON endpoint and wraps it in a Stream.
func (c *Client) openStream(ctx context.Context, path string, req any) (*Stream, error) {
	resp, err := c.do(ctx, http.MethodPost, path, req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	return &Stream{
		next: func() (protocol.StreamLine, bool, error) {
			for sc.Scan() {
				raw := bytes.TrimSpace(sc.Bytes())
				if len(raw) == 0 {
					continue
				}
				var line protocol.StreamLine
				if err := json.Unmarshal(raw, &line); err != nil {
					return protocol.StreamLine{}, false, fmt.Errorf("client: decode stream line: %w", err)
				}
				return line, true, nil
			}
			return protocol.StreamLine{}, false, sc.Err()
		},
		close: resp.Body.Close,
	}, nil
}

// unary runs one request/response exchange with retries on retryable
// protocol errors (and on transport errors, which cannot have left
// matching side effects worth worrying about — the API is read-mostly
// and Invalidate is idempotent). hedgeable marks read-only calls the
// client may race a duplicate request for (see WithHedge).
//
// The backoff between attempts is jittered to avoid synchronized retry
// storms: when a loaded shard sheds a whole fleet of requests at once,
// unjittered clients would all come back in the same instant and shed
// again. Each delay is drawn from [base/2, base] where base doubles per
// attempt; a server-supplied Retry-After is a floor — the client waits
// at least that long, plus up to half of it in jitter.
func (c *Client) unary(ctx context.Context, method, path string, in, out any, hedgeable bool) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.exchange(ctx, method, path, in, out, hedgeable)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= c.maxRetries || !retryableErr(err) {
			return lastErr
		}
		base := c.backoff << attempt
		delay := base/2 + c.jitter(base/2)
		if ra := retryAfter(err); ra > 0 {
			if spread := ra + c.jitter(ra/2); spread > delay {
				delay = spread
			}
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return lastErr
		}
	}
}

// exchange runs one logical exchange: a single request, or — for
// hedgeable calls on a hedging client — a raced pair.
func (c *Client) exchange(ctx context.Context, method, path string, in, out any, hedgeable bool) error {
	if !hedgeable || c.hedgeDelay <= 0 {
		resp, err := c.do(ctx, method, path, in)
		if err != nil {
			return err
		}
		return decodeResponse(resp, out)
	}
	return c.hedged(ctx, method, path, in, out)
}

// hedged races a primary request against a backup fired once the hedge
// delay elapses — or immediately, if the primary fails with a retryable
// error first. The first success wins and cancels the loser; each
// in-flight request decodes into its own value so a losing response can
// never corrupt the winner's. When both fail, the primary's error is
// returned.
func (c *Client) hedged(ctx context.Context, method, path string, in, out any) error {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		val     any
		err     error
		primary bool
	}
	results := make(chan outcome, 2)
	launch := func(primary bool) {
		val := cloneTarget(out)
		resp, err := c.do(hctx, method, path, in)
		if err == nil {
			err = decodeResponse(resp, val)
		}
		results <- outcome{val: val, err: err, primary: primary}
	}

	go launch(true)
	launched := 1
	timer := time.NewTimer(c.hedgeDelay)
	defer timer.Stop()

	var primaryErr, anyErr error
	for done := 0; done < launched; {
		select {
		case <-timer.C:
			if launched == 1 {
				launched = 2
				go launch(false)
			}
		case o := <-results:
			done++
			if o.err == nil {
				if out != nil {
					reflect.ValueOf(out).Elem().Set(reflect.ValueOf(o.val).Elem())
				}
				return nil
			}
			if o.primary {
				primaryErr = o.err
			}
			anyErr = o.err
			if launched == 1 && retryableErr(o.err) {
				// The primary failed retryably before the timer fired:
				// hedge now instead of waiting out the delay.
				launched = 2
				go launch(false)
			}
		}
	}
	if primaryErr != nil {
		return primaryErr
	}
	return anyErr
}

// cloneTarget allocates a fresh decode target of out's type, so
// concurrent hedged attempts never write the same value.
func cloneTarget(out any) any {
	if out == nil {
		return nil
	}
	return reflect.New(reflect.TypeOf(out).Elem()).Interface()
}

// do issues one HTTP exchange. A nil body sends no payload.
func (c *Client) do(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encode request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", c.userAgent)
	// Propagate a context-carried request ID (stamped by the service
	// middleware) so a router→shard hop appears under the user's ID in
	// the shard's access log. Invalid IDs are dropped, not sanitized:
	// the receiving middleware would re-mint anyway.
	if id := protocol.RequestIDFromContext(ctx); protocol.ValidRequestID(id) {
		req.Header.Set("X-Request-Id", id)
	}
	return c.httpClient.Do(req)
}

// decodeResponse decodes a 200 into out, or any other status into a
// *protocol.Error. out is zeroed first: unary retries decode into the
// same value, and a partially-decoded body from a failed earlier
// attempt must not bleed into the attempt that succeeds (maps merge,
// absent fields keep stale values).
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if v := reflect.ValueOf(out); v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	// The decoder stops at the end of the value. Read the body to its end
	// (a trailing newline, a chunked body's terminator) so the transport
	// can reuse the connection instead of closing it.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
	return nil
}

// maxDrain bounds how much of a response body past its JSON value the
// client reads to keep the connection reusable; a longer tail is left
// unread and the connection closed.
const maxDrain = 64 << 10

// retryAfterKey carries the server's Retry-After hint inside the error
// details.
const retryAfterKey = "retryAfter"

// decodeError turns a non-200 response into a *protocol.Error,
// synthesizing one from the status when the body carries no envelope (a
// proxy's error page, say). The Retry-After header, when present, rides
// along in the details.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env protocol.ErrorEnvelope
	e := &protocol.Error{}
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		e = env.Error
	} else {
		e = protocol.Errorf(protocol.CodeForStatus(resp.StatusCode), "HTTP %d: %s",
			resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		e = e.WithDetail(retryAfterKey, ra)
	}
	return e
}

// retryableErr reports whether an error is worth retrying: a retryable
// protocol error, or a transport-level failure.
func retryableErr(err error) bool {
	var pe *protocol.Error
	if errors.As(err, &pe) {
		return pe.Retryable
	}
	// No protocol envelope: connection refused/reset et al.
	return err != nil
}

// retryAfter extracts the server's Retry-After hint, if any.
func retryAfter(err error) time.Duration {
	var pe *protocol.Error
	if !errors.As(err, &pe) || pe.Details == nil {
		return 0
	}
	secs, convErr := strconv.Atoi(pe.Details[retryAfterKey])
	if convErr != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Stream iterates a progress stream line by line, whether the lines
// arrive as NDJSON over HTTP or straight from an in-process session:
//
//	stream, err := backend.Stream(ctx, req)
//	defer stream.Close()
//	for stream.Next() {
//	    line := stream.Line()
//	    ...
//	}
//	err = stream.Err()
type Stream struct {
	next  func() (protocol.StreamLine, bool, error)
	close func() error
	line  protocol.StreamLine
	err   error
	done  bool
}

// Next advances to the next line, reporting false at end of stream or
// on error (distinguish with Err).
func (s *Stream) Next() bool {
	if s.done {
		return false
	}
	line, ok, err := s.next()
	if !ok {
		s.err = err
		s.done = true
		return false
	}
	s.line = line
	return true
}

// Line returns the current line (valid after a true Next).
func (s *Stream) Line() protocol.StreamLine { return s.line }

// Err returns the terminal error, nil on a clean end of stream.
func (s *Stream) Err() error { return s.err }

// Close releases the stream's resources. It is safe to call at any
// point; iterating after Close reports end of stream.
func (s *Stream) Close() error {
	s.done = true
	if s.close != nil {
		return s.close()
	}
	return nil
}
