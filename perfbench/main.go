// Command perfbench is the repository's pipeline benchmark. It
// generates every input from a seed, drives one workload with a
// closed-loop client for a fixed time, checks every output, and prints
// one JSON result line last on standard output:
//
//	perfbench -workload match-warm -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half, and the metrics are
// the per-layer ones measured from the traced half's spans. See
// README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	// The system runs in this process with a live heap of 8 to 100 MB.
	// At the default GC target its collections come so often that their
	// phase against the ops set most of the run-to-run spread (latency
	// IQR 10% of the median over five runs, against 4% at this target).
	debug.SetGCPercent(gcPercent)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// gcPercent is the benchmark's GC target (GOGC).
const gcPercent = 400

// warmup is how long a run drives ops before it starts timing them.
const warmup = time.Second

// segments is how many equal parts the untraced run's window is cut
// into. At the end of each part the workload applies one chunk of its
// write probe, so that the probe's writes are spread over the whole run
// like its ops: the host's speed drifts over seconds, and a probe
// applied in one block would time one phase of it.
const segments = 10

// A run sets its workload up at least minSetups times and until
// setupTime has passed, at most maxSetups times; setup_s is the median.
// A set-up of a tenth of a second spreads by a third across runs, so
// the fast ones repeat more.
const (
	minSetups = 5
	maxSetups = 15
	setupTime = 2 * time.Second
)

type options struct {
	seed   int64
	window time.Duration
	trace  bool
	out    string // directory for work files and traces
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for work files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := specByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	opts := options{seed: *seed, trace: *trace == 1, out: *out,
		window: time.Duration(*seconds * float64(time.Second))}
	res, err := measure(context.Background(), spec, opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one set-up system under one traffic mix.
type workload interface {
	// op runs the n-th operation. It reports whether it was a write,
	// and an error when it failed or its output broke a check.
	op(ctx context.Context, n int64, sc scope) (write bool, err error)
	// finish runs the end-of-run output checks and returns match F1.
	finish(ctx context.Context) (f1 float64, err error)
	// deltas is the workload's delta stream, whose rounds write_p50_ms
	// averages over.
	deltas() *deltaStream
	// probe applies chunk i of the write probe on workloads whose
	// traffic has no writes of its own, checks every write, and returns
	// their latencies: whole rounds of the delta stream, after which the
	// workload is back in its set-up state. Workloads with writes of
	// their own apply none.
	probe(ctx context.Context, i int) ([]time.Duration, error)
	// prepareTrace fills, untimed, what the traced run's probes cache.
	prepareTrace(ctx context.Context) error
	// layers adds the per-layer metrics the workload measures itself,
	// such as cache counters and set-up storage timings.
	layers(m map[string]metric)
	close()
}

// spec names a workload and how to set it up.
type spec struct {
	name string
	// f1Floor fails the run when the matches drift below it.
	f1Floor float64
	setup   func(ctx context.Context, seed int64, dir string) (workload, error)
}

func specs() []spec {
	return []spec{
		{name: "match-warm", f1Floor: 0.80, setup: setupWarm},
		{name: "match-churn", f1Floor: 0.80, setup: setupChurn},
		{name: "fleet-matchall", f1Floor: 0.90, setup: setupFleet},
		{name: "dump-to-audit", f1Floor: 0.90, setup: setupDump},
	}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	var names string
	for i, s := range specs() {
		if i > 0 {
			names += ", "
		}
		names += s.name
	}
	return names
}

// measure sets the workload up, drives it and assembles the result.
func measure(ctx context.Context, sp spec, o options, log io.Writer) (*result, error) {
	work := filepath.Join(o.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var w workload
	var setups []float64
	for r, first := 0, time.Now(); r < maxSetups; r++ {
		if o.trace && r == 1 {
			break // the traced run reports no set-up time
		}
		if r >= minSetups && time.Since(first) >= setupTime {
			break
		}
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if w, err = sp.setup(ctx, o.seed, filepath.Join(work, fmt.Sprint(r))); err != nil {
			return nil, fmt.Errorf("set up %s: %w", sp.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	// Warm up for a second, at least one op: the first ops of a process
	// pay for heap growth and cold caches. Warm-up ops are checked and
	// counted, but not timed.
	st := drive(ctx, w, 0, warmup, nil, log)
	st.reads, st.writes = nil, nil
	var tr *tracer
	var overheadPct float64
	if o.trace {
		plain := drive(ctx, w, int64(st.attempted), o.window/2, nil, log)
		if err := w.prepareTrace(ctx); err != nil {
			return nil, fmt.Errorf("prepare trace: %w", err)
		}
		tr = newTracer()
		traced := drive(ctx, w, int64(st.attempted+plain.attempted), o.window/2, tr, log)
		overheadPct = 100 * (quantileMS(traced.all(), 0.5)/quantileMS(plain.all(), 0.5) - 1)
		st.merge(plain)
		st.merge(traced)
	} else {
		// Segment i ends at (i+1)/segments of the window, so ops and the
		// probe's writes share the window.
		var busy time.Duration
		var timedOps int
		start := time.Now()
		for i := 0; i < segments; i++ {
			end := start.Add(o.window * time.Duration(i+1) / segments)
			seg := drive(ctx, w, int64(st.attempted), time.Until(end), nil, log)
			st.merge(seg)
			busy += seg.busy
			timedOps += seg.attempted
			lat, err := w.probe(ctx, i)
			st.attempted += len(lat)
			st.writes = append(st.writes, lat...)
			if err != nil {
				st.attempted++
				st.failed++
				fmt.Fprintln(log, "write probe failed:", err)
				break
			}
		}
		st.opsPerSec = float64(timedOps) / busy.Seconds()
	}

	f1, err := w.finish(ctx)
	correct := err == nil && st.failed == 0
	if err != nil {
		fmt.Fprintln(log, "check failed:", err)
	}
	if f1 < sp.f1Floor {
		correct = false
		fmt.Fprintf(log, "check failed: match F1 %.4f is below the floor %.2f\n", f1, sp.f1Floor)
	}
	res := &result{Correct: correct, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	if !o.trace {
		rounds := w.deltas().roundMeans(st.writes)
		runtime.GC() // twice: the first only moves sync.Pool contents to the victim cache
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(log, "%s seed %d: %d ops (%d reads, %d writes), %d failed\n",
			sp.name, o.seed, st.attempted, len(st.reads), len(st.writes), st.failed)
		m := res.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["ops_per_s"] = metric{st.opsPerSec, "1/s"}
		m["latency_p50_ms"] = metric{quantileMS(st.reads, 0.50), "ms"}
		m["latency_p95_ms"] = metric{quantileMS(st.reads, 0.95), "ms"}
		m["write_p50_ms"] = metric{quantileMS(rounds, 0.50), "ms"}
		m["live_heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
		m["match_f1"] = metric{f1, "ratio"}
		return res, nil
	}

	rep := tr.report()
	writeTable(log, sp.name, rep)
	if err := tr.writeSpans(filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", sp.name, o.seed))); err != nil {
		return nil, err
	}
	m := res.Metrics
	layerMetrics(m, tr, rep)
	w.layers(m)
	m["failed_ratio"] = metric{float64(st.failed) / float64(st.attempted), "ratio"}
	m["trace.overhead_pct"] = metric{overheadPct, "%"}
	return res, nil
}

// loopStats collects one closed-loop drive.
type loopStats struct {
	attempted, failed int
	reads, writes     []time.Duration
	busy              time.Duration // from the first op's start to the last op's end
	opsPerSec         float64
}

func (s *loopStats) merge(o loopStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.reads = append(s.reads, o.reads...)
	s.writes = append(s.writes, o.writes...)
}

func (s loopStats) all() []time.Duration {
	return append(append([]time.Duration(nil), s.reads...), s.writes...)
}

// drive runs one closed-loop client until window has passed: it sends
// its next op only once the previous one returned, and an op that
// starts before the deadline runs to completion. A window that has
// already passed runs no op. Ops are numbered from first.
func drive(ctx context.Context, w workload, first int64, window time.Duration, tr *tracer, log io.Writer) loopStats {
	var st loopStats
	start := time.Now()
	end := start
	for n := first; end.Before(start.Add(window)); n++ {
		sc, closeRoot := tr.root(n + 1)
		t0 := time.Now()
		write, err := w.op(ctx, n, sc)
		end = time.Now()
		closeRoot()
		st.attempted++
		switch {
		case err != nil:
			if st.failed++; st.failed <= 5 {
				fmt.Fprintf(log, "op %d failed: %v\n", n, err)
			}
		case write:
			st.writes = append(st.writes, end.Sub(t0))
		default:
			st.reads = append(st.reads, end.Sub(t0))
		}
	}
	if st.busy = end.Sub(start); st.busy > 0 {
		st.opsPerSec = float64(st.attempted) / st.busy.Seconds()
	}
	return st
}

// layerMetrics turns the traced spans and counters into the per-layer
// metrics. Times are per op that ran the layer; counts are per traced
// op.
func layerMetrics(m map[string]metric, tr *tracer, rep traceReport) {
	ops := float64(max(rep.ops, 1))
	ms := func(span string) float64 { return rep.byName[span].msPerOp() }
	calls := func(span string) float64 {
		if a := rep.byName[span]; a != nil {
			return float64(a.calls) / ops
		}
		return 0
	}
	counter := func(name string) float64 {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.counts[name] / ops
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("ingest.ms", "ms", ms("ingest.dir"))
	ingestMB := counter("ingest.bytes") / (1 << 20)
	mbPerS := 0.0
	if t := ms("ingest.dir"); t > 0 {
		mbPerS = ingestMB / (t / 1000)
	}
	set("ingest.mb_per_s", "MB/s", mbPerS)
	set("ingest.triples", "count", counter("ingest.triples"))
	set("ingest.skipped", "count", counter("ingest.skipped"))
	set("ingest.peak_heap_mb", "MB", counter("ingest.peak_heap_mb"))
	set("dict.ms", "ms", ms("dict.build"))
	set("dict.builds", "count", calls("dict.build"))
	set("core.entity_types_ms", "ms", ms("core.entity_types"))
	set("sim.type_data_ms", "ms", ms("sim.type_data"))
	set("sim.type_data_builds", "count", calls("sim.type_data"))
	set("lsi.build_ms", "ms", ms("lsi.build"))
	set("lsi.builds", "count", calls("lsi.build"))
	set("lsi.nnz", "count", counter("lsi.nnz"))
	set("core.match_type_ms", "ms", ms("core.match_type"))
	set("core.candidates", "count", counter("core.candidates"))
	set("core.correspondences", "count", counter("core.correspondences"))
	set("service.match_ms", "ms", ms("service.match")+ms("service.matchall"))
	set("service.delta_ms", "ms", ms("service.delta"))
	set("protocol.encode_ms", "ms", ms("protocol.encode"))
	set("protocol.decode_ms", "ms", ms("protocol.decode"))
	set("protocol.response_kb", "KB", counter("protocol.response_bytes")/1024)
	set("http.overhead_ms", "ms", nonNeg(ms("http.match")-ms("service.match"))+
		nonNeg(ms("http.matchall")-ms("service.matchall")))
	set("multi.run_ms", "ms", ms("multi.run"))
	set("multi.clusters_ms", "ms", ms("multi.clusters"))
	set("multi.pairs", "count", counter("multi.pairs"))
	set("router.hop_ms", "ms", nonNeg(ms("router.matchall")-ms("http.matchall")))
	set("store.save_ms", "ms", ms("store.save"))
	set("store.restore_ms", "ms", ms("store.restore"))
	set("store.snapshot_mb", "MB", counter("store.snapshot_bytes")/(1<<20))
	set("audit.ms", "ms", ms("audit.run"))
	set("audit.compared", "count", counter("audit.compared"))
	set("audit.findings", "count", counter("audit.findings"))
	for _, layer := range selfLayers {
		set(layer+".self_ms", "ms", rep.selfMSPerOp(layer))
	}
	set("trace.probe_ms", "ms", rep.probeMSPerOp)
}

// selfLayers are the layers whose self time per op the traced run
// reports: every span is named "<layer>.<call>".
var selfLayers = []string{"ingest", "dict", "sim", "lsi", "core", "multi", "audit", "store",
	"service", "protocol", "http", "router"}

func nonNeg(v float64) float64 { return math.Max(v, 0) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileMS is the q-quantile of ds in milliseconds, interpolating
// between the closest ranks.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// errCheck marks an output that broke a check.
var errCheck = errors.New("output check failed")
