package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

const fleetShards = 3

// fleet is fleet-matchall: pivot all-pairs batches over the 12-edition
// corpus, sent through a router to three shard handlers warm-restored
// from one snapshot, and checked byte for byte against a single-binary
// handler restored from the same snapshot.
type fleet struct {
	c      *wiki.Corpus
	truth  *synth.EditionsTruth
	shards []*service.Session
	single *service.Session
	srvs   []*server // shards, then the single binary
	rt     *router.Router
	rtSrv  *server
	ref    []byte // the single binary's answer, normalized
	stats0 []protocol.CacheStats
	stream *deltaStream
	origFP string

	saveMS, restoreMS float64
	snapshotBytes     int

	m    *core.Matcher
	arts *artifacts
}

var fleetReq = protocol.MatchRequest{All: true, Mode: "pivot"}

func setupFleet(ctx context.Context, seed int64, _ string) (workload, error) {
	c, truth, err := editionsCorpus(seed, 1)
	if err != nil {
		return nil, err
	}
	f := &fleet{c: c, truth: truth, origFP: fmt.Sprintf("%016x", c.Fingerprint())}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	cold := service.New(c)
	if _, err := cold.ServeMatchAll(ctx, fleetReq); err != nil {
		return nil, fmt.Errorf("cold matchall: %w", err)
	}
	var buf bytes.Buffer
	start := time.Now()
	if err := cold.Save(&buf); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	f.saveMS = msSince(start)
	f.snapshotBytes = buf.Len()
	f.m = core.NewMatcher(cold.Config())
	f.arts = newArtifacts(f.m)

	start = time.Now()
	addrs := make([]string, fleetShards)
	for i := 0; i < fleetShards; i++ {
		s, err := service.RestoreFiltered(c, bytes.NewReader(buf.Bytes()), router.Owned(i, fleetShards))
		if err != nil {
			return nil, fmt.Errorf("shard %d restore: %w", i, err)
		}
		f.shards = append(f.shards, s)
		srv, err := newServer(service.NewHandler(s,
			service.WithShardGate(fmt.Sprintf("shard %d/%d", i, fleetShards), router.Owned(i, fleetShards))))
		if err != nil {
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		addrs[i] = srv.srv.URL
	}
	if f.single, err = service.Restore(c, bytes.NewReader(buf.Bytes())); err != nil {
		return nil, fmt.Errorf("single restore: %w", err)
	}
	f.restoreMS = msSince(start) / (fleetShards + 1)
	single, err := newServer(service.NewHandler(f.single))
	if err != nil {
		return nil, err
	}
	f.srvs = append(f.srvs, single)
	if f.rt, err = router.New(addrs, router.WithHealthInterval(-1),
		router.WithClientOptions(client.WithRetries(0, time.Millisecond))); err != nil {
		return nil, err
	}
	if f.rtSrv, err = newServer(f.rt.Handler()); err != nil {
		return nil, err
	}
	resp, err := single.cl.MatchAll(ctx, fleetReq)
	if err != nil {
		return nil, fmt.Errorf("single matchall: %w", err)
	}
	if f.ref, err = normalizeMatchAll(resp); err != nil {
		return nil, err
	}
	if f.stream, err = newProbeStream(c, seed); err != nil {
		return nil, err
	}
	for _, s := range f.shards {
		f.stats0 = append(f.stats0, s.CacheStats())
	}
	ok = true
	return f, nil
}

func (f *fleet) op(ctx context.Context, _ int64, sc scope) (bool, error) {
	var resp *protocol.MatchAllResponse
	rs, err := sc.span("router.matchall", func(scope) error {
		var err error
		resp, err = f.rtSrv.cl.MatchAll(ctx, fleetReq)
		return err
	})
	if err != nil {
		return false, err
	}
	if sc.traced() {
		if err := f.redrive(ctx, rs); err != nil {
			return false, err
		}
	}
	return false, f.check(resp)
}

func (f *fleet) check(resp *protocol.MatchAllResponse) error {
	got, err := normalizeMatchAll(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, f.ref) {
		return fmt.Errorf("%w: routed matchall differs from the single binary", errCheck)
	}
	return nil
}

// redrive re-drives what the routed batch hides: the same request to the
// single binary (the router hop is the difference), its ServeMatchAll,
// the batch scheduler over warm per-pair matches, the cluster builder,
// and the JSON coding of the answer. Every answer must equal the
// reference.
func (f *fleet) redrive(ctx context.Context, rs scope) error {
	var resp *protocol.MatchAllResponse
	hs, err := rs.span("http.matchall", func(scope) error {
		var err error
		resp, err = f.srvs[fleetShards].cl.MatchAll(ctx, fleetReq)
		return err
	})
	if err != nil {
		return err
	}
	if err := f.check(resp); err != nil {
		return err
	}
	var direct *protocol.MatchAllResponse
	ss, err := hs.span("service.matchall", func(scope) error {
		var err error
		direct, err = f.single.ServeMatchAll(ctx, fleetReq)
		return err
	})
	if err != nil {
		return err
	}
	r, err := fleetReq.Validate()
	if err != nil {
		return err
	}
	var batch *multi.BatchResult
	ms, err := ss.span("multi.run", func(s scope) error {
		var err error
		batch, err = multi.Run(ctx, warmMatcher{f: f, sc: s}, f.c.Languages(), r.Multi)
		return err
	})
	if err != nil {
		return err
	}
	ms.count("multi.pairs", float64(len(batch.Plan.Pairs)))
	var clusters []multi.Cluster
	ms.span("multi.clusters", func(scope) error {
		clusters = multi.BuildClusters(batch.Plan, batch.Outcomes)
		return nil
	})
	if err := sameClusters(clusters, resp.Clusters); err != nil {
		return err
	}
	var raw []byte
	if _, err := hs.span("protocol.encode", func(scope) error {
		raw, err = json.Marshal(direct)
		return err
	}); err != nil {
		return err
	}
	hs.count("protocol.response_bytes", float64(len(raw)))
	var back protocol.MatchAllResponse
	if _, err := hs.span("protocol.decode", func(scope) error { return json.Unmarshal(raw, &back) }); err != nil {
		return err
	}
	return f.check(direct)
}

// prepareTrace builds and warms the probes' type artifacts with one
// untraced re-driven batch.
func (f *fleet) prepareTrace(ctx context.Context) error {
	r, err := fleetReq.Validate()
	if err != nil {
		return err
	}
	_, err = multi.Run(ctx, warmMatcher{f: f}, f.c.Languages(), r.Multi)
	return err
}

func sameClusters(got, want []multi.Cluster) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%w: re-driven clusters differ from the served ones", errCheck)
	}
	return nil
}

// warmMatcher matches one pair of the batch from the single binary's
// cached alignment and dictionary and the benchmark's own type
// artifacts.
type warmMatcher struct {
	f  *fleet
	sc scope
}

func (wm warmMatcher) Match(ctx context.Context, pair wiki.LanguagePair) (*core.Result, error) {
	types, err := wm.f.single.Types(ctx, pair)
	if err != nil {
		return nil, err
	}
	d, err := wm.f.single.Dictionary(ctx, pair)
	if err != nil {
		return nil, err
	}
	return matchTypes(ctx, wm.sc, wm.f.m, wm.f.c, pair, types, d,
		func(ctx context.Context, sc scope, k typeKey) (*core.TypeArtifacts, error) {
			return wm.f.arts.get(ctx, sc, wm.f.c, k, d)
		})
}

func (f *fleet) finish(ctx context.Context) (float64, error) {
	resp, err := f.rtSrv.cl.MatchAll(ctx, fleetReq)
	if err != nil {
		return 0, err
	}
	f1 := editionsF1(f.truth, resp.Clusters)
	return f1, f.check(resp)
}

func (f *fleet) deltas() *deltaStream { return f.stream }

// probe applies chunk i of the write probe through the router, which
// fans every delta out to all shards. The chunk leaves the corpus as it
// found it; an untimed routed batch then rebuilds what it dirtied on the
// shards, and must equal the single binary's answer.
func (f *fleet) probe(ctx context.Context, i int) ([]time.Duration, error) {
	lat, err := f.stream.chunk(i, func(req protocol.DeltaRequest, restore bool) error {
		var resp protocol.FleetDeltaResponse
		if err := postJSON(ctx, f.rtSrv, "/v1/corpus/delta", req, &resp); err != nil {
			return err
		}
		if resp.Status != protocol.FleetOK || !resp.Consistent || len(resp.Shards) != fleetShards {
			return fmt.Errorf("%w: fleet delta status %s, consistent %v", errCheck, resp.Status, resp.Consistent)
		}
		for _, sd := range resp.Shards {
			if err := checkDelta(sd.Response, restore, f.origFP); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return lat, err
	}
	resp, err := f.rtSrv.cl.MatchAll(ctx, fleetReq)
	if err != nil {
		return lat, err
	}
	if err := f.check(resp); err != nil {
		return lat, fmt.Errorf("after write probe: %w", err)
	}
	return lat, nil
}

// postJSON posts body to the server's path and decodes a 200 answer;
// the router's fleet-shaped delta answer has no client method.
func postJSON(ctx context.Context, s *server, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.URL+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := (&http.Client{Transport: s.tr}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (f *fleet) layers(m map[string]metric) {
	var after []protocol.CacheStats
	for _, s := range f.shards {
		after = append(after, s.CacheStats())
	}
	cacheMetrics(m, f.stats0, after)
	m["store.save_ms"] = metric{f.saveMS, "ms"}
	m["store.restore_ms"] = metric{f.restoreMS, "ms"}
	m["store.snapshot_mb"] = metric{float64(f.snapshotBytes) / (1 << 20), "MB"}
}

func (f *fleet) close() {
	if f.rtSrv != nil {
		f.rtSrv.close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, s := range f.srvs {
		s.close()
	}
}
