package service

import (
	"context"
	"time"

	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// The batch routes of protocol v1: /v1/matchall, the all-pairs
// /v1/stream, /v1/audit and /v1/audit/stream. They are written once,
// here, over a BatchSource; a session and the fleet router each supply
// one and run the same plan resolution, pair relay, DTO assembly and
// audit emission, so a routed batch serializes byte-identically to a
// single binary's.

// BatchSource is what the batch routes need from a backend, and all
// that differs between a single binary and a fleet.
type BatchSource interface {
	// Languages returns the corpus language set a batch plans over.
	Languages(ctx context.Context) ([]wiki.Language, error)
	// PairMatcher returns the matcher one batch with these threshold
	// overrides runs its pairs on.
	PairMatcher(o protocol.Overrides) BatchMatcher
	// AuditClusters runs the value comparison of a validated audit
	// request whose Clusters are set, and answers with Entities,
	// Compared, Findings and Cache; the batch routes stamp the rest.
	AuditClusters(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error)
}

// BatchMatcher is one batch's pair matcher, with the cache stats its
// answer reports and the worker count it runs on when the request names
// none (0 means GOMAXPROCS).
type BatchMatcher struct {
	multi.PairMatcher
	Cache   func() protocol.CacheStats
	Workers int
}

// BatchRoutes serves the four batch routes over a BatchSource. Embed it
// in a Backend: its ServeMatchAll, ServeAudit and ServeAuditStream are
// the Backend's, and the backend's ServeStream hands all-pairs requests
// to StreamAll.
type BatchRoutes struct{ src BatchSource }

// NewBatchRoutes serves the batch routes over src.
func NewBatchRoutes(src BatchSource) BatchRoutes { return BatchRoutes{src: src} }

// ServeMatchAll answers an all-pairs MatchRequest: it runs the batch to
// completion and answers with its outcomes and clusters. Pair-scoped
// requests are rejected — they belong to ServeMatch.
func (b BatchRoutes) ServeMatchAll(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchAllResponse, error) {
	req.All = true
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	updates, m, err := b.matchPhase(ctx, r.Multi, r.Overrides)
	if err != nil {
		return nil, err
	}
	final, err := relay(ctx, updates, nil)
	if err != nil {
		return nil, err
	}
	resp := matchAllDTO(final, msSince(start), m.Cache())
	return &resp, nil
}

// StreamAll streams a validated all-pairs request: one Pair line per
// finished language pair, then a FinalAll line. It stops sending once
// ctx is done, and after a cancellation the final line is withheld.
func (b BatchRoutes) StreamAll(ctx context.Context, r protocol.Resolved) (<-chan protocol.StreamLine, error) {
	start := time.Now()
	updates, m, err := b.matchPhase(ctx, r.Multi, r.Overrides)
	if err != nil {
		return nil, err
	}
	out := make(chan protocol.StreamLine, cap(updates)) // a line per update
	go func() {
		defer close(out)
		final, err := relay(ctx, updates, out)
		if err != nil {
			return
		}
		resp := matchAllDTO(final, msSince(start), m.Cache())
		n := len(final.Outcomes)
		send(ctx, out, protocol.StreamLine{Done: n, Total: n, FinalAll: &resp})
	}()
	return out, nil
}

// ServeAudit answers an AuditRequest: run the all-pairs batch (unless
// the request carries pre-merged clusters), then compare every
// cross-linked entity's values across the matched clusters.
func (b BatchRoutes) ServeAudit(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error) {
	a, err := b.startAudit(ctx, req)
	if err != nil {
		return nil, err
	}
	return b.runAudit(ctx, a, nil)
}

// ServeAuditStream runs an AuditRequest with streamed progress: one
// Pair line per finished language pair of the matching phase, then one
// Finding line per ranked finding, closing with a FinalAudit line.
// Cluster-bearing requests skip the matching phase and stream findings
// only. It stops sending once ctx is done, and after a cancellation the
// audit does not run.
func (b BatchRoutes) ServeAuditStream(ctx context.Context, req protocol.AuditRequest) (<-chan protocol.StreamLine, error) {
	a, err := b.startAudit(ctx, req)
	if err != nil {
		return nil, err
	}
	// Room for every pair line (cap of a nil channel is 0), so the
	// matching phase never waits on the reader; finding lines do.
	out := make(chan protocol.StreamLine, cap(a.updates)+2)
	go func() {
		defer close(out)
		resp, err := b.runAudit(ctx, a, out)
		if err != nil {
			send(ctx, out, protocol.StreamLine{Error: protocol.FromErr(err)})
			return
		}
		n := len(resp.Findings)
		for i := range resp.Findings {
			if !send(ctx, out, protocol.StreamLine{Done: i + 1, Total: n, Finding: &resp.Findings[i]}) {
				return
			}
		}
		send(ctx, out, protocol.StreamLine{Done: n, Total: n, FinalAudit: resp})
	}()
	return out, nil
}

// matchPhase starts one all-pairs matching phase: the plan is resolved
// from the source's language set, and every planned pair runs on the
// source's matcher for the overrides. An explicit workers request is
// honored; otherwise the matcher's default applies. Per-pair failures
// land in their outcomes without aborting the batch.
func (b BatchRoutes) matchPhase(ctx context.Context, opts multi.Options, o protocol.Overrides) (<-chan multi.Update, BatchMatcher, error) {
	langs, err := b.src.Languages(ctx)
	if err != nil {
		return nil, BatchMatcher{}, err
	}
	plan, err := multi.NewPlan(langs, opts.Mode, opts.Hub)
	if err != nil {
		return nil, BatchMatcher{}, protocol.FromErr(err)
	}
	m := b.src.PairMatcher(o)
	workers := opts.Workers
	if workers <= 0 {
		workers = m.Workers
	}
	return multi.StreamPlan(ctx, m, plan, workers), m, nil
}

// relay runs a matching phase to completion, as multi.Run does, sending
// one Pair line per finished pair to out (nil for a unary answer), and
// returns the batch result, or ctx's error once ctx ends.
func relay(ctx context.Context, updates <-chan multi.Update, out chan<- protocol.StreamLine) (*multi.BatchResult, error) {
	var final *multi.BatchResult
	for u := range updates {
		if u.Outcome != nil && out != nil {
			p := pairOutcomeDTO(u.Outcome)
			if !send(ctx, out, protocol.StreamLine{Done: u.Done, Total: u.Total, Pair: &p}) {
				break
			}
		}
		if u.Final != nil {
			final = u.Final
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, protocol.FromErr(err)
	}
	return final, nil
}

// send delivers line unless ctx ends first, and reports whether it did.
func send(ctx context.Context, out chan<- protocol.StreamLine, line protocol.StreamLine) bool {
	select {
	case out <- line:
		return true
	case <-ctx.Done():
		return false
	}
}

// auditRun is one validated audit request in flight. updates is its
// matching phase, nil when the request carried clusters; the hub of a
// cluster-bearing request is resolved against the source's languages.
type auditRun struct {
	req     protocol.AuditRequest
	r       protocol.ResolvedAudit
	start   time.Time
	updates <-chan multi.Update
	m       BatchMatcher
}

// startAudit validates req and starts its matching phase, without
// threshold overrides, unless it carries clusters.
func (b BatchRoutes) startAudit(ctx context.Context, req protocol.AuditRequest) (auditRun, error) {
	r, err := req.Validate()
	if err != nil {
		return auditRun{}, err
	}
	a := auditRun{req: req, r: r, start: time.Now()}
	if r.Clusters != nil {
		if r.Multi.Hub == "" {
			langs, err := b.src.Languages(ctx)
			if err != nil {
				return auditRun{}, err
			}
			a.r.Multi.Hub = multi.DefaultHub(langs)
		}
		return a, nil
	}
	a.updates, a.m, err = b.matchPhase(ctx, r.Multi, protocol.Overrides{})
	return a, err
}

// runAudit finishes a: it relays the matching phase, if any, to out,
// has the source audit the clusters — the request's own or the batch's
// — and stamps the answer with the mode, hub, pair outcomes, cluster
// count and elapsed time, and with the matcher's cache stats when a
// ran the matching phase.
func (b BatchRoutes) runAudit(ctx context.Context, a auditRun, out chan<- protocol.StreamLine) (*protocol.AuditResponse, error) {
	req, hub := a.req, a.r.Multi.Hub
	var pairs []protocol.MatchAllPair
	if a.updates != nil {
		final, err := relay(ctx, a.updates, out)
		if err != nil {
			return nil, err
		}
		// Never nil, so an empty batch still skips a shard's own
		// matching phase.
		req.Clusters = final.Clusters
		if req.Clusters == nil {
			req.Clusters = []multi.Cluster{}
		}
		hub, pairs = final.Plan.Hub, pairDTOs(final)
	}
	resp, err := b.src.AuditClusters(ctx, req)
	if err != nil {
		return nil, err
	}
	resp.Mode, resp.Hub = a.r.Multi.Mode.String(), hub.String()
	resp.Pairs, resp.Clusters = pairs, len(req.Clusters)
	resp.ElapsedMS = msSince(a.start)
	if a.updates != nil {
		resp.Cache = a.m.Cache()
	}
	return resp, nil
}

// matchAllDTO flattens a batch result for the wire: the one assembly
// path for MatchAllResponse bodies.
func matchAllDTO(res *multi.BatchResult, elapsedMS float64, cache protocol.CacheStats) protocol.MatchAllResponse {
	resp := protocol.MatchAllResponse{
		Mode:      res.Plan.Mode.String(),
		Hub:       res.Plan.Hub.String(),
		Planned:   []string{},
		Pairs:     pairDTOs(res),
		Clusters:  res.Clusters,
		ElapsedMS: elapsedMS,
		Cache:     cache,
	}
	if resp.Clusters == nil {
		resp.Clusters = []multi.Cluster{}
	}
	for _, pair := range res.Plan.Pairs {
		resp.Planned = append(resp.Planned, pair.String())
	}
	for _, cl := range res.Clusters {
		resp.Conflicts += len(cl.Conflicts)
	}
	return resp
}

// pairDTOs flattens a batch's pair outcomes for the wire, in plan order.
func pairDTOs(res *multi.BatchResult) []protocol.MatchAllPair {
	var out []protocol.MatchAllPair
	for i := range res.Outcomes {
		out = append(out, pairOutcomeDTO(&res.Outcomes[i]))
	}
	return out
}

// pairOutcomeDTO flattens one batch pair outcome for the wire.
func pairOutcomeDTO(o *multi.PairOutcome) protocol.MatchAllPair {
	out := protocol.MatchAllPair{
		Pair:            o.Pair.String(),
		Correspondences: o.Correspondences(),
		ElapsedMS:       float64(o.Elapsed) / float64(time.Millisecond),
	}
	if o.Result != nil {
		out.Types = len(o.Result.Types)
	}
	if o.Err != nil {
		out.Error = o.Err.Error()
	}
	return out
}
