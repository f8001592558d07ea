package service

import "repro/internal/core"

// Option adjusts the parameters a session is created with. The session
// starts from core.DefaultParams (the paper's setting) and applies
// options in order, so later options win.
type Option func(*core.Params)

// WithTSim sets the certain-match threshold Tsim (paper: 0.6).
func WithTSim(v float64) Option {
	return func(p *core.Params) { p.TSim = v }
}

// WithTLSI sets the LSI correlation threshold TLSI (paper: 0.1).
func WithTLSI(v float64) Option {
	return func(p *core.Params) { p.TLSI = v }
}
