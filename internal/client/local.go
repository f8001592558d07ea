package client

import (
	"context"

	"repro/internal/protocol"
	"repro/internal/service"
)

// Local serves the Backend interface straight from an in-process
// session — the same typed execution path a wikimatchd reached through
// Client runs, with no HTTP in between. Code written against Backend
// (cmd/wikimatch, tests asserting remote/local equivalence) switches
// between the two with one assignment.
type Local struct {
	S *service.Session
}

// NewLocal wraps a session as a Backend.
func NewLocal(s *service.Session) Local { return Local{S: s} }

// Match implements Backend.
func (l Local) Match(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchResponse, error) {
	return l.S.ServeMatch(ctx, req)
}

// MatchAll implements Backend.
func (l Local) MatchAll(ctx context.Context, req protocol.MatchRequest) (*protocol.MatchAllResponse, error) {
	return l.S.ServeMatchAll(ctx, req)
}

// Stream implements Backend.
func (l Local) Stream(ctx context.Context, req protocol.MatchRequest) (*Stream, error) {
	return linesStream(l.S.ServeStream(ctx, req))
}

// Audit implements Backend.
func (l Local) Audit(ctx context.Context, req protocol.AuditRequest) (*protocol.AuditResponse, error) {
	return l.S.ServeAudit(ctx, req)
}

// AuditStream implements Backend.
func (l Local) AuditStream(ctx context.Context, req protocol.AuditRequest) (*Stream, error) {
	return linesStream(l.S.ServeAuditStream(ctx, req))
}

// linesStream iterates a session's line channel as a Stream.
func linesStream(lines <-chan protocol.StreamLine, err error) (*Stream, error) {
	if err != nil {
		return nil, err
	}
	return &Stream{
		next: func() (protocol.StreamLine, bool, error) {
			line, ok := <-lines
			return line, ok, nil
		},
	}, nil
}

// Stats implements Backend.
func (l Local) Stats(ctx context.Context) (*protocol.StatsResponse, error) {
	return l.S.ServeCorpus(ctx)
}

// Delta implements Backend.
func (l Local) Delta(ctx context.Context, req protocol.DeltaRequest) (*protocol.DeltaResponse, error) {
	return l.S.ServeDelta(ctx, req)
}

// Invalidate implements Backend.
func (l Local) Invalidate(ctx context.Context, lang string) (*protocol.InvalidateResponse, error) {
	return l.S.ServeInvalidate(ctx, protocol.InvalidateRequest{Lang: lang})
}
