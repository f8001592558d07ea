package service

import "repro/internal/core"

// Option adjusts the matcher configuration a session is created with.
// Options replace direct core.Config struct literals at call sites: the
// session starts from core.DefaultConfig (the paper's thresholds) and
// applies options in order, so later options win.
type Option func(*core.Config)

// WithConfig replaces the whole configuration — the escape hatch for
// ablation studies and other callers that already hold a core.Config.
func WithConfig(cfg core.Config) Option {
	return func(c *core.Config) { *c = cfg }
}

// WithTSim sets the certain-match threshold Tsim (paper: 0.6).
func WithTSim(v float64) Option {
	return func(c *core.Config) { c.TSim = v }
}

// WithTLSI sets the LSI correlation threshold TLSI (paper: 0.1).
func WithTLSI(v float64) Option {
	return func(c *core.Config) { c.TLSI = v }
}
