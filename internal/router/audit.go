package router

import (
	"context"
	"errors"
	"time"

	"repro/internal/client"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/service"
)

// The fleet audit path. The router holds no corpus, but every shard
// holds the full one — only artifacts are sharded — so an audit splits
// cleanly in two: the matching phase scatter-gathers across the fleet
// exactly like /v1/matchall (each pair on its owning shard's warm
// cache), and the merged clusters are then forwarded to one healthy
// shard, which runs the value comparison over its corpus copy. The
// forwarded request is an ordinary AuditRequest with Clusters set, so
// the shard side needs no fleet-specific code, and the assembled
// response is byte-identical to a single binary's modulo timings and
// cache provenance.

// ServeAudit runs the matching phase across the fleet (unless the
// request carries clusters) and forwards the clusters to one shard for
// the value comparison.
func (rt *Router) ServeAudit(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var pairs []protocol.MatchAllPair
	var fm *fleetMatcher
	if req.Clusters == nil {
		var final *multi.BatchResult
		if final, fm, err = rt.scatterGather(ctx, protocol.MatchRequest{}, r.Multi); err != nil {
			return nil, err
		}
		pairs = takeClusters(&req, final)
	}
	resp, err := onAnyShard(rt, func(sh *shard) (*protocol.AuditResponse, error) { return sh.c.Audit(ctx, req) })
	if err != nil {
		return nil, err
	}
	if fm != nil {
		resp.Pairs = pairs
		resp.Cache = fm.cacheTotals()
	}
	resp.ElapsedMS = msSince(start)
	return resp, nil
}

// ServeAuditStream is ServeAudit with streamed progress: the matching
// phase's pair lines, then the forwarding shard's finding lines and its
// final line, re-stamped with the fleet's pairs and cache totals.
func (rt *Router) ServeAuditStream(ctx context.Context, req protocol.AuditRequest) (<-chan protocol.StreamLine, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var updates <-chan multi.Update
	var fm *fleetMatcher
	if req.Clusters == nil {
		if updates, fm, err = rt.matchPhase(ctx, protocol.MatchRequest{}, r.Multi); err != nil {
			return nil, err
		}
	}
	lines := make(chan protocol.StreamLine, 16) // decouples the shard read from the client write
	go func() {
		defer close(lines)
		emit := func(line protocol.StreamLine) bool {
			select {
			case lines <- line:
				return true
			case <-ctx.Done():
				return false
			}
		}
		var pairs []protocol.MatchAllPair
		if updates != nil {
			var final *multi.BatchResult
			for u := range updates {
				if u.Outcome != nil {
					p := service.PairOutcomeDTO(u.Outcome)
					if !emit(protocol.StreamLine{Done: u.Done, Total: u.Total, Pair: &p}) {
						for range updates {
						}
						return
					}
				}
				if u.Final != nil {
					final = u.Final
				}
			}
			if final == nil {
				return
			}
			pairs = takeClusters(&req, final)
		}
		st, err := onAnyShard(rt, func(sh *shard) (*client.Stream, error) { return sh.c.AuditStream(ctx, req) })
		if err != nil {
			emit(protocol.StreamLine{Error: protocol.FromErr(err)})
			return
		}
		defer st.Close()
		for st.Next() {
			line := st.Line()
			if line.FinalAudit != nil && fm != nil {
				line.FinalAudit.Pairs = pairs
				line.FinalAudit.Cache = fm.cacheTotals()
				line.FinalAudit.ElapsedMS = msSince(start)
			}
			if !emit(line) {
				return
			}
		}
		if err := st.Err(); err != nil {
			emit(protocol.StreamLine{Error: protocol.FromErr(err)})
		}
	}()
	return lines, nil
}

// takeClusters moves a finished matching phase's clusters into the
// audit request to forward (never nil, so an empty batch still skips
// the shard's own matching phase) and returns its per-pair outcomes.
func takeClusters(req *protocol.AuditRequest, final *multi.BatchResult) []protocol.MatchAllPair {
	req.Clusters = final.Clusters
	if req.Clusters == nil {
		req.Clusters = []multi.Cluster{}
	}
	var pairs []protocol.MatchAllPair
	for i := range final.Outcomes {
		pairs = append(pairs, service.PairOutcomeDTO(&final.Outcomes[i]))
	}
	return pairs
}

// onAnyShard calls call on each shard in turn until one answers: any
// shard can serve a clusters-bearing audit, since all hold the full
// corpus. Structured non-retryable errors (validation) pass through
// immediately; transport-class failures try the next shard.
func onAnyShard[T any](rt *Router, call func(*shard) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for i := range rt.shards {
		sh := &rt.shards[i]
		v, err := call(sh)
		if err == nil {
			return v, nil
		}
		var pe *protocol.Error
		if errors.As(err, &pe) && !pe.Retryable {
			return zero, pe
		}
		lastErr = rt.shardErr(sh, err)
	}
	return zero, lastErr
}
