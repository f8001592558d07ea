package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Parent is the span whose work this call is part of: either
// the enclosing call (the child runs inside the parent's interval) or a
// call whose work is hidden from the benchmark, such as an HTTP round
// trip, which the child re-times after the parent returns.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for an op's root
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer started
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// scope is where the next span attaches: an op and a parent span.
type scope struct {
	t      *tracer
	op, id int64
}

// root opens the root span of op; a nil tracer gives a no-op scope.
func (t *tracer) root(op int64) (scope, func()) {
	if t == nil {
		return scope{}, func() {}
	}
	s := scope{t: t, op: op}
	return s.open("op")
}

func (s scope) open(name string) (scope, func()) {
	if s.t == nil {
		return s, func() {}
	}
	id := s.t.nextID.Add(1)
	start := time.Since(s.t.t0)
	return scope{t: s.t, op: s.op, id: id}, func() {
		end := time.Since(s.t.t0)
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{ID: id, Parent: s.id, Op: s.op, Name: name,
			Start: int64(start), End: int64(end)})
		s.t.mu.Unlock()
	}
}

// span times f as a child of s and returns the child's scope, so that
// later re-timed parts of its work can attach to it.
func (s scope) span(name string, f func(scope) error) (scope, error) {
	c, end := s.open(name)
	err := f(c)
	end()
	return c, err
}

func (s scope) traced() bool { return s.t != nil }

// count adds v to a per-layer counter.
func (s scope) count(name string, v float64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.counts[name] += v
	s.t.mu.Unlock()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name                      string
	CallsPerOp                float64 // over all traced ops
	TotalMSPerOp, SelfMSPerOp float64
	Share                     float64 // self time over all ops' time
}

// traceReport aggregates the spans of a traced run.
type traceReport struct {
	ops    int
	rows   []layerRow
	byName map[string]*layerAgg
	// probeMSPerOp is the time per op the op's root span does not spend
	// in the op itself: the re-timed probes and the output checks.
	probeMSPerOp float64
}

// report aggregates the spans: per name, calls, total and self time per
// traced op, and the self time's share of the ops' own time.
//
// A span's self time is its duration minus the time its children
// cover: children inside its interval cover the union of their
// intervals, and re-timed children (which ran after it returned) their
// durations. Children that ran concurrently share the wall time they
// cover, so each one's self time is weighted by the union over the sum
// of their durations; the weighted self times of an op then add up to
// its wall time. The root span of an op only frames it; its self time
// is the probe overhead.
func (t *tracer) report() traceReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]*span)
	for i := range t.spans {
		if sp := &t.spans[i]; sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	weight := make(map[int64]float64, len(t.spans))
	var visit func(sp *span, w float64)
	visit = func(sp *span, w float64) {
		weight[sp.ID] = w
		var in []*span
		var sum float64
		for _, k := range children[sp.ID] {
			if inside(sp, k) {
				in = append(in, k)
				sum += float64(k.End - k.Start)
			} else {
				visit(k, w)
			}
		}
		kw := w
		if u := union(in); sum > u && u > 0 {
			kw = w * u / sum
		}
		for _, k := range in {
			visit(k, kw)
		}
	}
	for i := range t.spans {
		if sp := &t.spans[i]; sp.Parent == 0 {
			visit(sp, 1)
		}
	}

	r := traceReport{byName: make(map[string]*layerAgg)}
	var opTotal, probeTotal float64
	for i := range t.spans {
		sp := &t.spans[i]
		d := float64(sp.End - sp.Start)
		self := math.Max(d-covered(sp, children[sp.ID]), 0) * weight[sp.ID]
		if sp.Parent == 0 {
			r.ops++
			opTotal += d - self
			probeTotal += self
			continue
		}
		a := r.byName[sp.Name]
		if a == nil {
			a = &layerAgg{perOp: make(map[int64]float64)}
			r.byName[sp.Name] = a
		}
		a.calls++
		a.total += d
		a.self += self
		a.perOp[sp.Op] += d
	}
	if r.ops == 0 {
		return r
	}
	r.probeMSPerOp = probeTotal / 1e6 / float64(r.ops)
	for name, a := range r.byName {
		r.rows = append(r.rows, layerRow{
			Name:         name,
			CallsPerOp:   float64(a.calls) / float64(r.ops),
			TotalMSPerOp: a.total / 1e6 / float64(r.ops),
			SelfMSPerOp:  a.self / 1e6 / float64(r.ops),
			Share:        a.self / opTotal,
		})
	}
	sort.Slice(r.rows, func(i, j int) bool { return r.rows[i].SelfMSPerOp > r.rows[j].SelfMSPerOp })
	return r
}

// layerAgg is one span name's totals, in nanoseconds.
type layerAgg struct {
	calls       int
	total, self float64
	perOp       map[int64]float64
}

// msPerOp is the span's time per op that ran it, in milliseconds: the
// median over those ops of the op's summed span time.
func (a *layerAgg) msPerOp() float64 {
	if a == nil || len(a.perOp) == 0 {
		return 0
	}
	v := make([]float64, 0, len(a.perOp))
	for _, d := range a.perOp {
		v = append(v, d/1e6)
	}
	return median(v)
}

// selfMSPerOp sums the self time per traced op of every span whose
// name starts with the layer's prefix.
func (r traceReport) selfMSPerOp(layer string) float64 {
	var v float64
	for _, row := range r.rows {
		if strings.HasPrefix(row.Name, layer+".") {
			v += row.SelfMSPerOp
		}
	}
	return v
}

func inside(parent, k *span) bool { return k.Start >= parent.Start && k.End <= parent.End }

// covered is how much of parent's time its children account for.
func covered(parent *span, kids []*span) float64 {
	var outside float64
	var in []*span
	for _, k := range kids {
		if inside(parent, k) {
			in = append(in, k)
		} else {
			outside += float64(k.End - k.Start)
		}
	}
	return union(in) + outside
}

// union is the length of the union of the spans' intervals.
func union(spans []*span) float64 {
	iv := make([][2]int64, len(spans))
	for i, k := range spans {
		iv[i] = [2]int64{k.Start, k.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total float64
	var curS, curE int64 = 0, -1
	for _, v := range iv {
		if v[0] > curE {
			if curE > curS {
				total += float64(curE - curS)
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		total += float64(curE - curS)
	}
	return total
}

// writeTable prints the per-layer table.
func writeTable(w io.Writer, workload string, r traceReport) {
	fmt.Fprintf(w, "per-layer self time, %s (%d traced ops)\n", workload, r.ops)
	fmt.Fprintf(w, "%-22s %10s %12s %12s %8s\n", "span", "calls/op", "wall ms/op", "self ms/op", "share")
	for _, row := range r.rows {
		fmt.Fprintf(w, "%-22s %10.2f %12.3f %12.3f %7.1f%%\n",
			row.Name, row.CallsPerOp, row.TotalMSPerOp, row.SelfMSPerOp, 100*row.Share)
	}
	fmt.Fprintf(w, "%-22s %10s %12.3f   (re-timed probes and checks, not in the share base)\n", "probe overhead", "", r.probeMSPerOp)
}

// writeSpans stores every span as JSON under dir.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
