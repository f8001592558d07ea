package service

import (
	"repro/internal/audit"
	"repro/internal/protocol"
	"repro/internal/wiki"
)

// The audit helpers of the session's cluster audit
// (sessionBatch.AuditClusters): the request's pair filter and limit,
// and the wire form of a finding.

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
