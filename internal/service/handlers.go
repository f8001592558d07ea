package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/protocol"
)

// The typed /v1/ endpoints of wire protocol v1. Every matching
// endpoint is POST JSON over protocol.MatchRequest; every error is a
// structured envelope (code / message / retryable / details).

// Backend is what NewHandler serves: the typed execution behind every
// /v1 route. *Session implements it for the single binary, and the
// fleet router (internal/router) implements it over its shards, so both
// share one route table, method guard, body decoder, shard gate and
// middleware stack. The handler decodes each body and passes it on
// unvalidated; validation belongs to the backend, which returns
// protocol errors (or errors protocol.FromErr classifies). Both embed
// BatchRoutes for ServeMatchAll, ServeAudit and ServeAuditStream and
// hand all-pairs streams to its StreamAll.
//
// The control-plane bodies differ between the two: a fleet answers a
// delta, a health probe and a metrics scrape with FleetDeltaResponse,
// FleetHealth and FleetMetrics. Those three methods therefore return
// the body to encode, and the handler hands health and metrics its own
// start time and middleware counters.
type Backend interface {
	ServeMatch(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchResponse, error)
	ServeMatchAll(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchAllResponse, error)
	ServeStream(ctx context.Context, req protocol.MatchRequest) (<-chan protocol.StreamLine, error)
	ServeAudit(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error)
	ServeAuditStream(ctx context.Context, req protocol.AuditRequest) (<-chan protocol.StreamLine, error)
	ServeCorpus(ctx context.Context) (*protocol.StatsResponse, error)
	ServeInvalidate(ctx context.Context, req protocol.InvalidateRequest) (*protocol.InvalidateResponse, error)
	DeltaBody(ctx context.Context, req protocol.DeltaRequest) (any, error)
	HealthBody(ctx context.Context, started time.Time) (any, error)
	MetricsBody(ctx context.Context, stack protocol.Metrics) (any, error)
}

// serverState bundles what the handlers need beyond the backend: the
// stack configuration, process start time (for /v1/healthz) and the
// middleware's live counters (for /v1/metrics).
type serverState struct {
	b       Backend
	cfg     HandlerConfig
	started time.Time
	metrics *serverMetrics
}

// NewHandler builds the wikimatchd HTTP API over one backend — a
// shared session, or a fleet router: the typed /v1/ protocol wrapped in
// the middleware stack (request IDs, access log, per-request timeouts,
// load shedding, panic recovery, metrics).
//
//	POST /v1/match         pair or single-type match, JSON in/out
//	POST /v1/matchall      all-pairs batch with correspondence clusters
//	POST /v1/stream        NDJSON progress stream (pair or all-pairs)
//	POST /v1/audit         cross-edition value-consistency report
//	POST /v1/audit/stream  NDJSON audit stream (pairs, findings, final)
//	GET  /v1/corpus        corpus, fingerprint, cache and parameters
//	POST /v1/corpus/delta  apply article edits, invalidate dirty artifacts
//	POST /v1/invalidate    drop cached artifacts for a language
//	GET  /v1/healthz       liveness: uptime, snapshot age, cache stats
//	GET  /v1/metrics       middleware counters
//
// Every other path answers with the structured not_found envelope.
func NewHandler(b Backend, opts ...HandlerOption) http.Handler {
	st := &serverState{b: b, cfg: newHandlerConfig(opts), started: time.Now()}
	mux := http.NewServeMux()
	registerV1(mux, st)
	h, metrics := wrapMiddleware(mux, st.cfg)
	st.metrics = metrics
	return h
}

// route is one entry of the v1 route table.
type route struct {
	method, path string
	handle       func(*serverState, http.ResponseWriter, *http.Request)
	// stream marks NDJSON endpoints: exempt from the per-request
	// timeout, subject to the stream cap instead.
	stream bool
	// probe marks control-plane endpoints the limiter never sheds: an
	// overloaded server still answers health checks.
	probe bool
}

// v1Routes is the one table of protocol v1 endpoints: registerV1 mounts
// each entry, and the middleware reads each entry's metrics label,
// stream flag and probe flag from it, so none of them can drift apart.
var v1Routes = []route{
	{method: http.MethodPost, path: "/v1/match", handle: (*serverState).handleMatch},
	{method: http.MethodPost, path: "/v1/matchall", handle: (*serverState).handleMatchAll},
	{method: http.MethodPost, path: "/v1/stream", handle: (*serverState).handleStream, stream: true},
	{method: http.MethodPost, path: "/v1/audit", handle: (*serverState).handleAudit},
	{method: http.MethodPost, path: "/v1/audit/stream", handle: (*serverState).handleAuditStream, stream: true},
	{method: http.MethodGet, path: "/v1/corpus", handle: (*serverState).handleCorpus},
	{method: http.MethodPost, path: "/v1/corpus/delta", handle: (*serverState).handleDelta},
	{method: http.MethodPost, path: "/v1/invalidate", handle: (*serverState).handleInvalidate},
	{method: http.MethodGet, path: "/v1/healthz", handle: (*serverState).handleHealthz, probe: true},
	{method: http.MethodGet, path: "/v1/metrics", handle: (*serverState).handleMetrics, probe: true},
}

// findRoute returns the v1 route serving path, or nil.
func findRoute(path string) *route {
	for i := range v1Routes {
		if v1Routes[i].path == path {
			return &v1Routes[i]
		}
	}
	return nil
}

func registerV1(mux *http.ServeMux, st *serverState) {
	for _, rt := range v1Routes {
		mux.HandleFunc(rt.path, st.method(rt.method, func(w http.ResponseWriter, r *http.Request) {
			rt.handle(st, w, r)
		}))
	}
	// Unknown routes get the structured envelope, not net/http's
	// plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, protocol.Errorf(protocol.CodeNotFound, "no such endpoint %s", r.URL.Path))
	})
}

// method guards a route's HTTP method with a structured 405.
func (st *serverState) method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			writeEnvelope(w, protocol.Errorf(protocol.CodeMethodNotAllowed,
				"method %s not allowed on %s (use %s)", r.Method, r.URL.Path, want))
			return
		}
		h(w, r)
	}
}

// decodeBody decodes a JSON request body strictly: unknown fields and
// trailing data after the first value are protocol errors. An empty
// body decodes to the zero request, so `curl -X POST /v1/match` runs
// the default pt-en pair.
func decodeBody(r *http.Request, v any) *protocol.Error {
	if r.Body == nil {
		return nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var extra json.RawMessage
		if trailErr := dec.Decode(&extra); !errors.Is(trailErr, io.EOF) {
			return bodyError(trailErr, "request body must contain exactly one JSON object")
		}
		return nil
	}
	if errors.Is(err, io.EOF) {
		return nil
	}
	return bodyError(err, "")
}

// bodyError classifies a body read/decode failure; override replaces
// the decoder's message when set.
func bodyError(err error, override string) *protocol.Error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return protocol.Errorf(protocol.CodePayloadTooLarge, "request body exceeds %d bytes", maxErr.Limit)
	}
	if override != "" {
		return protocol.Errorf(protocol.CodeInvalidArgument, "invalid request body: %s", override)
	}
	return protocol.Errorf(protocol.CodeInvalidArgument, "invalid request body: %v", err)
}

// respond writes a backend's answer, or its error as the envelope.
func respond(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeEnvelope(w, protocol.FromErr(err))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (st *serverState) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req protocol.MatchRequest
	if e := decodeBody(r, &req); e != nil {
		writeEnvelope(w, e)
		return
	}
	if e := st.gatePair(req); e != nil {
		writeEnvelope(w, e)
		return
	}
	resp, err := st.b.ServeMatch(r.Context(), req)
	respond(w, resp, err)
}

func (st *serverState) handleMatchAll(w http.ResponseWriter, r *http.Request) {
	var req protocol.MatchRequest
	if e := decodeBody(r, &req); e != nil {
		writeEnvelope(w, e)
		return
	}
	if !req.All && (req.Pair != "" || req.Type != "") {
		writeEnvelope(w, protocol.Errorf(protocol.CodeInvalidArgument,
			"pair-scoped request must be sent to /v1/match"))
		return
	}
	req.All = true
	if e := st.gatePair(req); e != nil {
		writeEnvelope(w, e)
		return
	}
	resp, err := st.b.ServeMatchAll(r.Context(), req)
	respond(w, resp, err)
}

func (st *serverState) handleStream(w http.ResponseWriter, r *http.Request) {
	var req protocol.MatchRequest
	if e := decodeBody(r, &req); e != nil {
		writeEnvelope(w, e)
		return
	}
	if e := st.gatePair(req); e != nil {
		writeEnvelope(w, e)
		return
	}
	// The relay's cancel is the slow-reader guard's lever: a write
	// deadline miss cancels the in-flight matching work, and the
	// backend-side buffers (sized for the whole run) are dropped with the
	// channel instead of pinning until the client drains them.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	lines, err := st.b.ServeStream(ctx, req)
	st.streamNDJSON(w, cancel, lines, err)
}

// streamWriteTimeout bounds each NDJSON line write, so a stalled reader
// frees the stream's resources instead of pinning them.
const streamWriteTimeout = time.Minute

// streamNDJSON writes a backend's line stream as NDJSON, or its error
// as the envelope, with the slow-reader guard applied: each line's
// write runs under a fresh streamWriteTimeout deadline — armed
// immediately before the write, so slow matching between lines never
// counts against it — and a failed write cancels the producer and
// drains it so no goroutine or buffer outlives the dead connection.
// Writers without deadline support (httptest recorders) just skip the
// guard.
func (st *serverState) streamNDJSON(w http.ResponseWriter, cancel context.CancelFunc, lines <-chan protocol.StreamLine, err error) {
	if err != nil {
		writeEnvelope(w, protocol.FromErr(err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for line := range lines {
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if err := enc.Encode(line); err != nil {
			cancel()
			for range lines {
			}
			return
		}
		_ = rc.Flush()
	}
	// Disarm so a keep-alive connection is not poisoned by a stale
	// deadline.
	_ = rc.SetWriteDeadline(time.Time{})
}

// gatePair enforces the shard-ownership gate on a decoded matching
// request: a fleet replica serves only the language pairs its shard
// owns, so a pair it does not own is answered with a retryable
// unavailable envelope (the router owns the shard map; a direct hit on
// the wrong replica means a stale or bypassed one), and all-pairs
// requests are rejected outright — scatter-gather is the router's job.
// Returns nil on ungated replicas and on requests that fail validation,
// so the execution path's canonical errors are untouched.
func (st *serverState) gatePair(req protocol.MatchRequest) *protocol.Error {
	if st.cfg.PairOwned == nil {
		return nil
	}
	r, err := req.Validate()
	if err != nil {
		return nil
	}
	if r.All {
		return protocol.Errorf(protocol.CodeInvalidArgument,
			"all-pairs requests are not served by shard replicas (%s); send them to the router",
			st.cfg.ShardLabel)
	}
	if !st.cfg.PairOwned(r.Pair) {
		return protocol.Errorf(protocol.CodeUnavailable,
			"pair %s is not owned by %s; consult the router's shard map", r.Pair, st.cfg.ShardLabel)
	}
	return nil
}

func (st *serverState) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req protocol.AuditRequest
	if e := decodeBody(r, &req); e != nil {
		writeEnvelope(w, e)
		return
	}
	if e := st.gateAudit(req); e != nil {
		writeEnvelope(w, e)
		return
	}
	resp, err := st.b.ServeAudit(r.Context(), req)
	respond(w, resp, err)
}

func (st *serverState) handleAuditStream(w http.ResponseWriter, r *http.Request) {
	var req protocol.AuditRequest
	if e := decodeBody(r, &req); e != nil {
		writeEnvelope(w, e)
		return
	}
	if e := st.gateAudit(req); e != nil {
		writeEnvelope(w, e)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	lines, err := st.b.ServeAuditStream(ctx, req)
	st.streamNDJSON(w, cancel, lines, err)
}

// gateAudit enforces the shard-ownership gate on audit requests: a
// fleet replica never runs the matching phase itself (its artifact
// slice covers only its owned pairs), so an audit without pre-merged
// clusters is rejected — the router scatter-gathers the match and
// forwards the clusters.
func (st *serverState) gateAudit(req protocol.AuditRequest) *protocol.Error {
	if st.cfg.PairOwned == nil || req.Clusters != nil {
		return nil
	}
	return protocol.Errorf(protocol.CodeInvalidArgument,
		"audit requests without clusters are not served by shard replicas (%s); send them to the router",
		st.cfg.ShardLabel)
}

func (st *serverState) handleCorpus(w http.ResponseWriter, r *http.Request) {
	resp, err := st.b.ServeCorpus(r.Context())
	respond(w, resp, err)
}

func (st *serverState) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	var req protocol.InvalidateRequest
	if e := decodeBody(r, &req); e != nil {
		writeEnvelope(w, e)
		return
	}
	resp, err := st.b.ServeInvalidate(r.Context(), req)
	respond(w, resp, err)
}

func (st *serverState) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req protocol.DeltaRequest
	if e := decodeBody(r, &req); e != nil {
		writeEnvelope(w, e)
		return
	}
	resp, err := st.b.DeltaBody(r.Context(), req)
	respond(w, resp, err)
}

func (st *serverState) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp, err := st.b.HealthBody(r.Context(), st.started)
	respond(w, resp, err)
}

func (st *serverState) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp, err := st.b.MetricsBody(r.Context(), st.metrics.snapshot())
	respond(w, resp, err)
}

// writeJSON writes v as a JSON response body.
//
// The body is encoded whole and sent with its Content-Length, not
// chunked. A chunked body ends with a terminator written only after the
// handler returns; a client that stops reading at the end of the JSON
// value closes the body before that terminator arrives, and its
// transport then drops the connection. Whether it arrived in time is a
// race, so without a length the next request would reconnect at random.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledJSON {
			buf.Reset()
			jsonBufs.Put(buf)
		}
	}()
	_ = json.NewEncoder(buf).Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// jsonBufs recycles writeJSON's encode buffers, so a response costs no
// garbage beyond its encoding; buffers grown past maxPooledJSON (a large
// matchall answer) are left to the collector instead of pinned.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSON = 1 << 20
