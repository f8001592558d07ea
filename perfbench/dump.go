package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/synth"
)

// dumpScale multiplies the 12-edition fixture's entities per type. At
// benchall's ingest scale (10) an op takes 4 to 5 s, too few in a run
// for a steady median; at 2 it takes about 1 s, and the layers' shares
// of it stay close to those at 10.
const dumpScale = 2

// dump is dump-to-audit, the offline batch path: each op ingests the
// TTL dump set, cold-matches all pairs on a fresh session, saves a
// snapshot, restores it and audits the restored session. The first op
// also audits before saving, for the reference every op is checked
// against; it runs in the untimed warm-up.
type dump struct {
	dir   string
	fp    uint64
	truth *synth.EditionsTruth

	// refAudit is the first op's audit before its save; every op's
	// audit after restore must equal it.
	refAudit []byte
	last     *service.Session // the latest op's restored session
	lastF1   float64
	cache    protocol.CacheStats // summed over the ops' sessions
	stream   *deltaStream
	origFP   string
}

var auditReq = protocol.AuditRequest{Mode: "pivot"}

func setupDump(ctx context.Context, seed int64, dir string) (workload, error) {
	c, truth, err := editionsCorpus(seed, dumpScale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, lang := range c.Languages() {
		for _, f := range []struct {
			name  string
			write func(*os.File) error
		}{
			{"-infobox-properties.ttl", func(w *os.File) error { return ingest.WriteProperties(w, c, lang) }},
			{"-interlanguage-links.ttl", func(w *os.File) error { return ingest.WriteLinks(w, c, lang) }},
		} {
			if err := writeFile(filepath.Join(dir, string(lang)+f.name), f.write); err != nil {
				return nil, err
			}
		}
	}
	stream, err := newProbeStream(c, seed)
	if err != nil {
		return nil, err
	}
	return &dump{dir: dir, fp: c.Fingerprint(), truth: truth, stream: stream,
		origFP: fmt.Sprintf("%016x", c.Fingerprint())}, nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (d *dump) op(ctx context.Context, _ int64, sc scope) (bool, error) {
	var res *ingest.Result
	stopHeap := sc.sampleHeap()
	_, err := sc.span("ingest.dir", func(scope) error {
		var err error
		res, err = ingest.Dir(ctx, d.dir, ingest.Options{})
		return err
	})
	stopHeap()
	if err != nil {
		return false, err
	}
	if got := res.Corpus.Fingerprint(); got != d.fp {
		return false, fmt.Errorf("%w: ingested corpus fingerprint %016x, generated %016x", errCheck, got, d.fp)
	}
	tot := res.Totals()
	sc.count("ingest.bytes", float64(res.Bytes))
	sc.count("ingest.triples", float64(tot.Triples))
	sc.count("ingest.skipped", float64(tot.SkippedTotal()))

	sess := service.New(res.Corpus)
	var all *protocol.MatchAllResponse
	ms, err := sc.span("service.matchall", func(scope) error {
		var err error
		all, err = sess.ServeMatchAll(ctx, protocol.MatchRequest{All: true, Mode: auditReq.Mode})
		return err
	})
	if err != nil {
		return false, err
	}
	if sc.traced() {
		if err := d.probeBuild(ctx, ms, res, all); err != nil {
			return false, err
		}
	}
	if d.refAudit == nil {
		if d.refAudit, err = d.audit(ctx, scope{}, sess, all.Clusters); err != nil {
			return false, err
		}
	}
	var buf bytes.Buffer
	if _, err := sc.span("store.save", func(scope) error { return sess.Save(&buf) }); err != nil {
		return false, err
	}
	sc.count("store.snapshot_bytes", float64(buf.Len()))
	var restored *service.Session
	if _, err := sc.span("store.restore", func(scope) error {
		var err error
		restored, err = service.Restore(res.Corpus, bytes.NewReader(buf.Bytes()))
		return err
	}); err != nil {
		return false, err
	}
	after, err := d.audit(ctx, sc, restored, all.Clusters)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(d.refAudit, after) {
		return false, fmt.Errorf("%w: audit after restore differs from the audit before save", errCheck)
	}
	f1 := editionsF1(d.truth, all.Clusters)
	for _, cs := range []protocol.CacheStats{sess.CacheStats(), restored.CacheStats()} {
		d.cache.Hits += cs.Hits
		d.cache.Misses += cs.Misses
	}
	d.last, d.lastF1 = restored, f1
	return false, nil
}

// audit runs ServeAudit and returns its normalized answer. The traced
// run re-times audit.Run on the batch's clusters and checks its counts
// against the served answer.
func (d *dump) audit(ctx context.Context, sc scope, sess *service.Session, clusters []multi.Cluster) ([]byte, error) {
	var resp *protocol.AuditResponse
	as, err := sc.span("service.audit", func(scope) error {
		var err error
		resp, err = sess.ServeAudit(ctx, auditReq)
		return err
	})
	if err != nil {
		return nil, err
	}
	if sc.traced() {
		var rep *audit.Report
		as.span("audit.run", func(scope) error {
			rep = audit.Run(sess.Corpus(), clusters, audit.Options{})
			return nil
		})
		as.count("audit.compared", float64(rep.Compared))
		as.count("audit.findings", float64(len(rep.Findings)))
		if rep.Compared != resp.Compared || len(rep.Findings) != len(resp.Findings) {
			return nil, fmt.Errorf("%w: re-driven audit compared %d with %d findings, served %d with %d",
				errCheck, rep.Compared, len(rep.Findings), resp.Compared, len(resp.Findings))
		}
	}
	return normalizeAudit(resp)
}

// probeBuild re-drives the cold batch a fresh session hides, through
// the batch scheduler with a matcher that builds every artifact from the
// ingested corpus, and checks its clusters equal the served ones.
func (d *dump) probeBuild(ctx context.Context, ms scope, res *ingest.Result, all *protocol.MatchAllResponse) error {
	r, err := protocol.MatchRequest{All: true, Mode: auditReq.Mode}.Validate()
	if err != nil {
		return err
	}
	m := core.NewMatcher(core.DefaultConfig())
	var batch *multi.BatchResult
	rs, err := ms.span("multi.run", func(s scope) error {
		var err error
		batch, err = multi.Run(ctx, coldMatcher{sc: s, m: m, c: res.Corpus}, res.Corpus.Languages(), r.Multi)
		return err
	})
	if err != nil {
		return err
	}
	rs.count("multi.pairs", float64(len(batch.Plan.Pairs)))
	var clusters []multi.Cluster
	rs.span("multi.clusters", func(scope) error {
		clusters = multi.BuildClusters(batch.Plan, batch.Outcomes)
		return nil
	})
	return sameClusters(clusters, all.Clusters)
}

func (d *dump) finish(context.Context) (float64, error) {
	if d.last == nil {
		return 0, fmt.Errorf("no op completed")
	}
	return d.lastF1, nil
}

func (d *dump) deltas() *deltaStream { return d.stream }

// probe applies chunk i of the write probe to the latest op's restored
// session; the next op starts from the dump again.
func (d *dump) probe(ctx context.Context, i int) ([]time.Duration, error) {
	return d.stream.chunk(i, func(req protocol.DeltaRequest, restore bool) error {
		resp, err := d.last.ServeDelta(ctx, req)
		if err != nil {
			return err
		}
		return checkDelta(resp, restore, d.origFP)
	})
}

func (d *dump) layers(m map[string]metric) {
	cacheMetrics(m, []protocol.CacheStats{{}}, []protocol.CacheStats{d.cache})
}

func (d *dump) prepareTrace(context.Context) error { return nil }

func (d *dump) close() { os.RemoveAll(d.dir) }

// sampleHeap samples the heap every millisecond until the returned stop is
// called, and counts the peak growth over the starting heap in MB.
func (s scope) sampleHeap() (stop func()) {
	if !s.traced() {
		return func() {}
	}
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		if p := peak.Load(); p > base.HeapAlloc {
			s.count("ingest.peak_heap_mb", float64(p-base.HeapAlloc)/(1<<20))
		}
	}
}
