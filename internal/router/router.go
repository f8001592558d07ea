package router

import (
	"context"
	"errors"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/wiki"
)

// shard is one replica of the fleet: its index in the shard map, the
// normalized base URL, and the SDK client the router reaches it with.
type shard struct {
	index int
	addr  string
	c     *client.Client
}

// probeTimeout bounds each per-shard health probe.
const probeTimeout = 2 * time.Second

// Router coordinates a wikimatchd fleet behind the single-binary /v1
// surface. It is a service.Backend: Handler serves it through the same
// service.NewHandler a single binary runs. Build it with New, mount
// Handler, and Close it on shutdown to stop the health poller.
type Router struct {
	shards []shard

	clientOpts     []client.Option
	handlerOpts    []service.HandlerOption
	healthInterval time.Duration
	logger         *log.Logger

	started time.Time

	// langMu guards the cached fleet language set, discovered from a
	// shard's corpus stats and dropped whenever a delta lands (the
	// corpus may have grown a language).
	langMu sync.Mutex
	langs  []wiki.Language

	// healthMu guards the poller's last fleet-health observation.
	healthMu   sync.Mutex
	lastHealth *protocol.FleetHealth

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Option adjusts a Router.
type Option func(*Router)

// WithClientOptions passes SDK options (retries, hedging, HTTP client)
// to every per-shard client.
func WithClientOptions(opts ...client.Option) Option {
	return func(rt *Router) { rt.clientOpts = append(rt.clientOpts, opts...) }
}

// WithHandlerOptions passes middleware-stack options to the router's
// own HTTP surface (Handler is the same service.NewHandler a replica
// runs), stream write timeouts included.
func WithHandlerOptions(opts ...service.HandlerOption) Option {
	return func(rt *Router) { rt.handlerOpts = append(rt.handlerOpts, opts...) }
}

// WithHealthInterval sets the background health-poll period. 0 keeps
// the 15s default; negative disables the poller (health is then only
// probed live, per /v1/healthz request).
func WithHealthInterval(d time.Duration) Option {
	return func(rt *Router) { rt.healthInterval = d }
}

// WithLogger receives fleet-health transitions and routing errors.
func WithLogger(l *log.Logger) Option {
	return func(rt *Router) { rt.logger = l }
}

// New builds a router over the shard addresses, in shard-map order:
// addrs[i] must be the replica started with -shard-index i (and
// -shard-count len(addrs)), or the routed slices will not line up with
// the warm-loaded ones. Addresses without a scheme get "http://".
func New(addrs []string, opts ...Option) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("router: no shard addresses")
	}
	rt := &Router{
		healthInterval: 15 * time.Second,
		started:        time.Now(),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	for _, opt := range opts {
		opt(rt)
	}
	for i, addr := range addrs {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c, err := client.New(base, rt.clientOpts...)
		if err != nil {
			return nil, err
		}
		rt.shards = append(rt.shards, shard{index: i, addr: base, c: c})
	}
	if rt.healthInterval > 0 {
		go rt.poll()
	} else {
		close(rt.done)
	}
	return rt, nil
}

// Close stops the background health poller. The Handler keeps serving;
// Close only releases the goroutine.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// Shards reports the fleet size.
func (rt *Router) Shards() int { return len(rt.shards) }

// owner returns the shard the map assigns a pair to.
func (rt *Router) owner(pair wiki.LanguagePair) *shard {
	return &rt.shards[ShardFor(pair, len(rt.shards))]
}

// Handler mounts the fleet /v1 surface: service.NewHandler over the
// router, so routes, method guards, body decoding and the middleware
// stack (request IDs, metrics, shedding) are the single binary's own,
// and a client cannot tell a router from a single binary except by the
// fleet-shaped healthz/metrics/delta bodies.
func (rt *Router) Handler() http.Handler {
	return service.NewHandler(rt, rt.handlerOpts...)
}

// fanOut calls f on every shard concurrently and returns the answers in
// shard order.
func fanOut[T any](rt *Router, f func(*shard) T) []T {
	out := make([]T, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = f(&rt.shards[i])
		}()
	}
	wg.Wait()
	return out
}

// shardErr classifies a per-shard call failure: a structured protocol
// error from the shard passes through untouched (the shard's envelope
// is already canonical), anything else — connection refused, timeouts,
// malformed bodies — becomes a retryable unavailable envelope naming
// the shard, so callers see where the fleet is broken.
func (rt *Router) shardErr(sh *shard, err error) *protocol.Error {
	var pe *protocol.Error
	if errors.As(err, &pe) {
		return pe
	}
	if rt.logger != nil {
		rt.logger.Printf("shard %d (%s): %v", sh.index, sh.addr, err)
	}
	return protocol.Errorf(protocol.CodeUnavailable,
		"shard %d (%s) unreachable: %v", sh.index, sh.addr, err)
}

// ServeMatch routes a pair or single-type request to the shard owning
// its pair.
func (rt *Router) ServeMatch(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchResponse, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.All {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"all-pairs request must be sent to /v1/matchall")
	}
	sh := rt.owner(r.Pair)
	resp, err := sh.c.Match(ctx, req)
	if err != nil {
		return nil, rt.shardErr(sh, err)
	}
	return resp, nil
}

// ServeMatchAll scatter-gathers an all-pairs batch across the fleet.
func (rt *Router) ServeMatchAll(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchAllResponse, error) {
	req.All = true
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	final, fm, err := rt.scatterGather(ctx, req, r.Multi)
	if err != nil {
		return nil, err
	}
	resp := service.MatchAllDTO(final, msSince(start), fm.cacheTotals())
	return &resp, nil
}

// ServeStream streams an all-pairs batch scatter-gathered with live
// progress, through the same relay as a single binary's, or relays the
// owning shard's stream of a pair-scoped request verbatim.
func (rt *Router) ServeStream(ctx context.Context, req protocol.MatchRequest) (<-chan protocol.StreamLine, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.Type != "" {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"single-type requests cannot stream; use /v1/match")
	}
	if r.All {
		updates, fm, err := rt.matchPhase(ctx, req, r.Multi)
		if err != nil {
			return nil, err
		}
		return service.RelayAllStream(updates, fm.cacheTotals), nil
	}
	sh := rt.owner(r.Pair)
	st, err := sh.c.Stream(ctx, req)
	if err != nil {
		return nil, rt.shardErr(sh, err)
	}
	lines := make(chan protocol.StreamLine, 16) // decouples the shard read from the client write
	go func() {
		defer close(lines)
		defer st.Close()
		for st.Next() {
			select {
			case lines <- st.Line():
			case <-ctx.Done():
				return
			}
		}
		if err := st.Err(); err != nil {
			select {
			case lines <- protocol.StreamLine{Error: rt.shardErr(sh, err)}:
			case <-ctx.Done():
			}
		}
	}()
	return lines, nil
}

// matchPhase starts one all-pairs matching phase across the fleet: the
// plan is resolved router-side from the fleet's language set, and every
// planned pair is routed to its owning shard. It is the one matching
// phase behind /v1/matchall, the all-pairs stream and both audits.
// Per-pair shard failures land in their outcomes without aborting the
// batch, exactly like a local failure. An explicit workers request is
// honored; the default is full fan-out (one worker per planned pair),
// because router-side pair work is network-bound waiting, not CPU — the
// shards bound their own compute.
func (rt *Router) matchPhase(ctx context.Context, req protocol.MatchRequest, opts multi.Options) (<-chan multi.Update, *fleetMatcher, error) {
	langs, err := rt.fleetLanguages(ctx)
	if err != nil {
		return nil, nil, err
	}
	plan, err := multi.NewPlan(langs, opts.Mode, opts.Hub)
	if err != nil {
		return nil, nil, protocol.FromErr(err)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = len(plan.Pairs)
	}
	fm := rt.fleetMatcher(req)
	return multi.StreamPlan(ctx, fm, plan, workers), fm, nil
}

// scatterGather runs matchPhase to completion and returns the merged
// batch, reconstructed through the same cluster builder a single binary
// runs.
func (rt *Router) scatterGather(ctx context.Context, req protocol.MatchRequest, opts multi.Options) (*multi.BatchResult, *fleetMatcher, error) {
	updates, fm, err := rt.matchPhase(ctx, req, opts)
	if err != nil {
		return nil, nil, err
	}
	var final *multi.BatchResult
	for u := range updates {
		if u.Final != nil {
			final = u.Final
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, protocol.FromErr(err)
	}
	if final == nil {
		return nil, nil, protocol.Errorf(protocol.CodeUnavailable, "matching phase produced no result")
	}
	return final, fm, nil
}

// fleetMatcher adapts the fleet to multi.PairMatcher: each pair is one
// /v1/match against its owning shard, reconstructed into the core
// result the cluster builder consumes. It also collects each shard's
// latest cache-stats snapshot, so the merged response can report fleet
// cache totals without extra round trips.
type fleetMatcher struct {
	rt   *Router
	base protocol.MatchRequest

	mu    sync.Mutex
	cache map[int]protocol.CacheStats
}

func (rt *Router) fleetMatcher(req protocol.MatchRequest) *fleetMatcher {
	// Only the threshold overrides survive into the per-pair requests;
	// batch fields (all/mode/hub/workers) stay router-side.
	return &fleetMatcher{
		rt:    rt,
		base:  protocol.MatchRequest{TSim: req.TSim, TLSI: req.TLSI, TEg: req.TEg},
		cache: make(map[int]protocol.CacheStats),
	}
}

// Match implements multi.PairMatcher over the fleet.
func (f *fleetMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	req := f.base
	req.Pair = pair.String()
	sh := f.rt.owner(pair)
	resp, err := sh.c.Match(ctx, req)
	if err != nil {
		return nil, f.rt.shardErr(sh, err)
	}
	f.mu.Lock()
	f.cache[sh.index] = resp.Cache
	f.mu.Unlock()
	return resp.Result()
}

// cacheTotals sums the latest cache snapshot seen from each shard
// during the batch — the fleet-wide equivalent of a session's
// CacheStats.
func (f *fleetMatcher) cacheTotals() protocol.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out protocol.CacheStats
	for _, cs := range f.cache {
		out.Add(cs)
	}
	return out
}

// fleetLanguages discovers (and caches) the corpus language set from
// the first shard that answers its stats. Every shard serves the full
// corpus — only artifacts are sharded — so any answer is
// authoritative. The cache is dropped when a delta lands.
func (rt *Router) fleetLanguages(ctx context.Context) ([]wiki.Language, error) {
	rt.langMu.Lock()
	cached := rt.langs
	rt.langMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	var lastErr error
	for i := range rt.shards {
		sh := &rt.shards[i]
		stats, err := sh.c.Stats(ctx)
		if err != nil {
			lastErr = rt.shardErr(sh, err)
			continue
		}
		langs := make([]wiki.Language, 0, len(stats.Corpus.Articles))
		for lang := range stats.Corpus.Articles {
			langs = append(langs, lang)
		}
		sort.Slice(langs, func(i, j int) bool { return langs[i] < langs[j] })
		rt.langMu.Lock()
		rt.langs = langs
		rt.langMu.Unlock()
		return langs, nil
	}
	return nil, lastErr
}

// invalidateLanguages drops the cached language set after a corpus
// mutation.
func (rt *Router) invalidateLanguages() {
	rt.langMu.Lock()
	rt.langs = nil
	rt.langMu.Unlock()
}

// ServeCorpus serves the corpus and config of the first shard that
// answers (identical everywhere), with cache stats summed across every
// shard that answers, since each holds a disjoint artifact slice.
func (rt *Router) ServeCorpus(ctx context.Context) (*protocol.StatsResponse, error) {
	type answer struct {
		stats *protocol.StatsResponse
		err   error
	}
	answers := fanOut(rt, func(sh *shard) answer {
		stats, err := sh.c.Stats(ctx)
		if err != nil {
			return answer{err: rt.shardErr(sh, err)}
		}
		return answer{stats: stats}
	})
	var resp *protocol.StatsResponse
	var cache protocol.CacheStats
	var lastErr error
	for _, a := range answers {
		if a.err != nil {
			lastErr = a.err
			continue
		}
		if resp == nil {
			resp = a.stats
		}
		cache.Add(a.stats.Cache)
	}
	if resp == nil {
		return nil, lastErr
	}
	resp.Cache = cache
	return resp, nil
}

// DeltaBody fans a corpus delta out to every shard and answers with a
// FleetDeltaResponse: per-shard outcomes and whether the fleet's
// corpora still agree.
func (rt *Router) DeltaBody(ctx context.Context, req protocol.DeltaRequest) (any, error) {
	// Validate router-side so a malformed delta is rejected with the
	// canonical envelope before touching any shard.
	if _, err := req.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	shards := fanOut(rt, func(sh *shard) protocol.ShardDelta {
		sd := protocol.ShardDelta{Shard: sh.index, Addr: sh.addr}
		resp, err := sh.c.Delta(ctx, req)
		if err != nil {
			sd.Error = rt.shardErr(sh, err)
		} else {
			sd.Response = resp
		}
		return sd
	})
	rt.invalidateLanguages()

	ok := 0
	fingerprint, consistent := "", true
	for _, sd := range shards {
		if sd.Error != nil {
			continue
		}
		ok++
		if fingerprint == "" {
			fingerprint = sd.Response.Fingerprint
		} else if sd.Response.Fingerprint != fingerprint {
			consistent = false
		}
	}
	status := protocol.FleetOK
	switch {
	case ok == 0:
		status = protocol.FleetDown
	case ok < len(shards):
		status = protocol.FleetDegraded
	}
	// A partial fan-out leaves the fleet's corpora diverged until the
	// failed shards take the delta: report it, loudly.
	if ok < len(shards) {
		consistent = false
	}
	return protocol.FleetDeltaResponse{
		Status:     status,
		Consistent: consistent && ok > 0,
		Shards:     shards,
		ElapsedMS:  msSince(start),
	}, nil
}

// ServeInvalidate fans an invalidation out to every shard and sums the
// per-shard drop counts.
func (rt *Router) ServeInvalidate(ctx context.Context, req protocol.InvalidateRequest) (*protocol.InvalidateResponse, error) {
	if _, err := req.Validate(); err != nil {
		return nil, err
	}
	type answer struct {
		resp *protocol.InvalidateResponse
		err  error
	}
	answers := fanOut(rt, func(sh *shard) answer {
		resp, err := sh.c.Invalidate(ctx, req.Lang)
		if err != nil {
			return answer{err: rt.shardErr(sh, err)}
		}
		return answer{resp: resp}
	})
	var total protocol.InvalidateResponse
	for _, a := range answers {
		if a.err != nil {
			// Partial invalidation is worse than none to reason about;
			// surface the failure and let the caller retry the fleet.
			return nil, a.err
		}
		total.Dropped += a.resp.Dropped
		total.Pairs += a.resp.Pairs
		total.Types += a.resp.Types
	}
	return &total, nil
}

// HealthBody probes every shard live and answers with the FleetHealth,
// recording it as the latest observation.
func (rt *Router) HealthBody(ctx context.Context, started time.Time) (any, error) {
	h := rt.probeFleet(ctx, started)
	rt.storeHealth(&h)
	return h, nil
}

// MetricsBody answers with FleetMetrics: the router's own middleware
// counters beside each shard's.
func (rt *Router) MetricsBody(ctx context.Context, stack protocol.Metrics) (any, error) {
	shards := fanOut(rt, func(sh *shard) protocol.ShardMetrics {
		sm := protocol.ShardMetrics{Shard: sh.index, Addr: sh.addr}
		m, err := sh.c.Metrics(ctx)
		if err != nil {
			sm.Error = rt.shardErr(sh, err).Error()
		} else {
			sm.Metrics = m
		}
		return sm
	})
	return protocol.FleetMetrics{Router: stack, Shards: shards}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
