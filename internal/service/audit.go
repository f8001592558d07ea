package service

import (
	"context"
	"time"

	"repro/internal/audit"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// The audit execution path of protocol v1. ServeAudit and
// ServeAuditStream sit behind POST /v1/audit and /v1/audit/stream, the
// Go client's backends and the CLI's audit subcommand; like the match
// endpoints, everything funnels through protocol.AuditRequest.Validate
// and one DTO assembly (auditDTO), so a routed audit serializes
// byte-identically to a single binary's.

// ServeAudit answers an AuditRequest: run (or reuse, when the request
// carries pre-merged clusters) the all-pairs batch through the
// session's artifact cache, then compare every cross-linked entity's
// values across the matched clusters.
func (s *Session) ServeAudit(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.Multi.Hub == "" {
		r.Multi.Hub = multi.DefaultHub(s.Corpus().Languages())
	}
	start := time.Now()
	clusters := r.Clusters
	var pairs []protocol.MatchAllPair
	if clusters == nil {
		res, err := multi.Run(ctx, s.pairMatcherFor(protocol.Overrides{}), s.Corpus().Languages(), r.Multi)
		if err != nil {
			return nil, protocol.FromErr(err)
		}
		clusters = res.Clusters
		for i := range res.Outcomes {
			pairs = append(pairs, PairOutcomeDTO(&res.Outcomes[i]))
		}
	}
	report := audit.Run(s.Corpus(), clusters, audit.Options{MinSeverity: r.MinSev})
	findings := filterFindings(report.Findings, r)
	resp := auditDTO(r, pairs, len(clusters), report, findings, msSince(start), s.CacheStats())
	return &resp, nil
}

// ServeAuditStream runs an AuditRequest with streamed progress: one
// Pair line per finished language pair of the matching phase, then one
// Finding line per ranked finding, closing with a FinalAudit line.
// Cluster-bearing requests skip the matching phase and stream findings
// only. The channel is buffered for the matching phase; after a
// cancellation the final line is withheld.
func (s *Session) ServeAuditStream(ctx context.Context, req protocol.AuditRequest) (<-chan protocol.StreamLine, error) {
	r, err := req.Validate()
	if err != nil {
		return nil, err
	}
	if r.Multi.Hub == "" {
		r.Multi.Hub = multi.DefaultHub(s.Corpus().Languages())
	}
	start := time.Now()
	if r.Clusters != nil {
		out := make(chan protocol.StreamLine, 2)
		go func() {
			defer close(out)
			s.emitAudit(out, r, nil, r.Clusters, start)
		}()
		return out, nil
	}
	updates, err := multi.Stream(ctx, s.pairMatcherFor(protocol.Overrides{}), s.Corpus().Languages(), r.Multi)
	if err != nil {
		return nil, protocol.FromErr(err)
	}
	out := make(chan protocol.StreamLine, cap(updates)+2)
	go func() {
		defer close(out)
		var final *multi.BatchResult
		for u := range updates {
			if u.Outcome != nil {
				p := PairOutcomeDTO(u.Outcome)
				out <- protocol.StreamLine{Done: u.Done, Total: u.Total, Pair: &p}
			}
			if u.Final != nil {
				final = u.Final
			}
		}
		if final == nil {
			return
		}
		var pairs []protocol.MatchAllPair
		for i := range final.Outcomes {
			pairs = append(pairs, PairOutcomeDTO(&final.Outcomes[i]))
		}
		s.emitAudit(out, r, pairs, final.Clusters, start)
	}()
	return out, nil
}

// emitAudit runs the value-comparison phase and emits one Finding line
// per ranked finding followed by the FinalAudit summary.
func (s *Session) emitAudit(out chan<- protocol.StreamLine, r protocol.ResolvedAudit, pairs []protocol.MatchAllPair, clusters []multi.Cluster, start time.Time) {
	report := audit.Run(s.Corpus(), clusters, audit.Options{MinSeverity: r.MinSev})
	findings := filterFindings(report.Findings, r)
	dtos := findingDTOs(findings)
	for i := range dtos {
		out <- protocol.StreamLine{Done: i + 1, Total: len(dtos), Finding: &dtos[i]}
	}
	final := auditDTO(r, pairs, len(clusters), report, findings, msSince(start), s.CacheStats())
	out <- protocol.StreamLine{Done: len(dtos), Total: len(dtos), FinalAudit: &final}
}

// filterFindings applies the request's pair restriction and limit to
// the ranked findings. The severity gate already ran inside audit.Run;
// the limit must run after the pair filter, so a restricted report
// still fills up to Limit findings.
func filterFindings(findings []audit.Finding, r protocol.ResolvedAudit) []audit.Finding {
	out := findings
	if r.HasPair {
		out = nil
		for _, f := range findings {
			if len(f.Values) == 2 && pairOf(f.Values[0].Lang, f.Values[1].Lang) == pairOf(r.Pair.A, r.Pair.B) {
				out = append(out, f)
			}
		}
	}
	if r.Limit > 0 && len(out) > r.Limit {
		out = out[:r.Limit]
	}
	return out
}

// pairOf orders two languages into a canonical comparable pair.
func pairOf(a, b wiki.Language) [2]wiki.Language {
	if b < a {
		a, b = b, a
	}
	return [2]wiki.Language{a, b}
}

// auditDTO flattens an audit outcome for the wire. It is the one
// assembly path for AuditResponse bodies: ServeAudit and the audit
// stream both go through it, and a fleet's audit reaches it on the
// shard its clusters are forwarded to.
func auditDTO(r protocol.ResolvedAudit, pairs []protocol.MatchAllPair, clusters int, report *audit.Report, findings []audit.Finding, elapsedMS float64, cache protocol.CacheStats) protocol.AuditResponse {
	return protocol.AuditResponse{
		Mode:      r.Multi.Mode.String(),
		Hub:       r.Multi.Hub.String(),
		Pairs:     pairs,
		Clusters:  clusters,
		Entities:  report.Entities,
		Compared:  report.Compared,
		Findings:  findingDTOs(findings),
		ElapsedMS: elapsedMS,
		Cache:     cache,
	}
}

// findingDTOs flattens findings for the wire, never nil so an empty
// report serializes as [].
func findingDTOs(findings []audit.Finding) []protocol.AuditFinding {
	out := make([]protocol.AuditFinding, 0, len(findings))
	for _, f := range findings {
		dto := protocol.AuditFinding{
			Entity:     f.Entity,
			Titles:     make(map[string]string, len(f.Titles)),
			Cluster:    f.Cluster,
			Kind:       string(f.Kind),
			Magnitude:  f.Magnitude,
			Confidence: f.Confidence,
			Severity:   f.Severity,
			Detail:     f.Detail,
		}
		for lang, title := range f.Titles {
			dto.Titles[lang.String()] = title
		}
		for _, v := range f.Values {
			dto.Values = append(dto.Values, protocol.AuditValue{
				Lang: v.Lang.String(), Attr: v.Attr, Raw: v.Raw, Norm: v.Norm,
			})
		}
		out = append(out, dto)
	}
	return out
}
