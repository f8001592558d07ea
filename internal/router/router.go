package router

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
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
	// BatchRoutes serves /v1/matchall, the all-pairs /v1/stream and
	// both audits: the single binary's code over the fleet's
	// BatchSource (fleetBatch).
	service.BatchRoutes

	shards []shard

	clientOpts     []client.Option
	handlerOpts    []service.HandlerOption
	healthInterval time.Duration
	logger         *log.Logger

	started time.Time

	// langMu guards the cached fleet language set (fleetBatch.Languages),
	// dropped whenever a delta lands (the corpus may have grown a
	// language).
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
// runs).
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
	rt.BatchRoutes = service.NewBatchRoutes(fleetBatch{rt})
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
// is already canonical), a call cut short by the request's own deadline
// or cancellation answers as a single binary would (deadline_exceeded
// or canceled), and anything else — connection refused, timeouts,
// malformed bodies — becomes a retryable unavailable envelope naming
// the shard, so callers see where the fleet is broken.
func (rt *Router) shardErr(ctx context.Context, sh *shard, err error) *protocol.Error {
	var pe *protocol.Error
	if errors.As(err, &pe) {
		return pe
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return protocol.FromErr(ctxErr)
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
		return nil, rt.shardErr(ctx, sh, err)
	}
	return resp, nil
}

// ServeStream hands an all-pairs request to the batch routes, or relays
// the owning shard's stream of a pair-scoped request verbatim.
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
		return rt.StreamAll(ctx, r)
	}
	sh := rt.owner(r.Pair)
	st, err := sh.c.Stream(ctx, req)
	if err != nil {
		return nil, rt.shardErr(ctx, sh, err)
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
			case lines <- protocol.StreamLine{Error: rt.shardErr(ctx, sh, err)}:
			case <-ctx.Done():
			}
		}
	}()
	return lines, nil
}

// invalidateLanguages drops the cached language set after a corpus
// mutation.
func (rt *Router) invalidateLanguages() {
	rt.langMu.Lock()
	rt.langs = nil
	rt.langMu.Unlock()
}

// ServeCorpus serves the corpus, fingerprint and parameters the
// answering shards agree on, with cache stats summed across them, since
// each holds a disjoint artifact slice. Answering shards that disagree
// on the fingerprint or the parameters serve no one corpus: the router
// answers unavailable and names each of them.
func (rt *Router) ServeCorpus(ctx context.Context) (*protocol.StatsResponse, error) {
	type answer struct {
		stats *protocol.StatsResponse
		err   error
	}
	answers := fanOut(rt, func(sh *shard) answer {
		stats, err := sh.c.Stats(ctx)
		if err != nil {
			return answer{err: rt.shardErr(ctx, sh, err)}
		}
		return answer{stats: stats}
	})
	var resp *protocol.StatsResponse
	var cache protocol.CacheStats
	var lastErr error
	var served []string
	agree := true
	for i, a := range answers {
		if a.err != nil {
			lastErr = a.err
			continue
		}
		if resp == nil {
			resp = a.stats
		}
		agree = agree && a.stats.Fingerprint == resp.Fingerprint && a.stats.Config == resp.Config
		served = append(served, fmt.Sprintf("shard %d (%s) fingerprint %s config %+v",
			i, rt.shards[i].addr, a.stats.Fingerprint, a.stats.Config))
		cache.Add(a.stats.Cache)
	}
	if resp == nil {
		return nil, lastErr
	}
	if !agree {
		return nil, protocol.Errorf(protocol.CodeUnavailable,
			"shards serve different corpora or parameters: %s", strings.Join(served, "; "))
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
			sd.Error = rt.shardErr(ctx, sh, err)
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
			return answer{err: rt.shardErr(ctx, sh, err)}
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
			sm.Error = rt.shardErr(ctx, sh, err).Error()
		} else {
			sm.Metrics = m
		}
		return sm
	})
	return protocol.FleetMetrics{Router: stack, Shards: shards}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
