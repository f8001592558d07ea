package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/wiki"
)

var (
	corpusOnce sync.Once
	testCorpus *wiki.Corpus
)

func smallCorpus(t testing.TB) *wiki.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		c, _, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		testCorpus = c
	})
	return testCorpus
}

// fleet is one running test topology: count shard replicas (each gated
// and serving the full corpus), a router over them, and a plain
// single-binary server on the same corpus for equivalence checks.
type fleet struct {
	rt      *Router
	rtSrv   *httptest.Server
	shards  []*httptest.Server
	single  *httptest.Server
	lastIDs []*atomic.Value // per shard: last inbound X-Request-Id
}

func startFleet(t *testing.T, count int, rtOpts ...Option) *fleet {
	t.Helper()
	c := smallCorpus(t)
	f := &fleet{}
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		s := service.New(c)
		h := service.NewHandler(s, service.WithShardGate(shardLabel(i, count), Owned(i, count)))
		last := &atomic.Value{}
		f.lastIDs = append(f.lastIDs, last)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			last.Store(r.Header.Get("X-Request-Id"))
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		f.shards = append(f.shards, srv)
		addrs[i] = srv.URL
	}
	opts := append([]Option{
		WithHealthInterval(-1),
		WithClientOptions(client.WithRetries(0, time.Millisecond)),
	}, rtOpts...)
	rt, err := New(addrs, opts...)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(rt.Close)
	f.rt = rt
	f.rtSrv = httptest.NewServer(rt.Handler())
	t.Cleanup(f.rtSrv.Close)

	f.single = httptest.NewServer(service.NewHandler(service.New(c)))
	t.Cleanup(f.single.Close)
	return f
}

func shardLabel(i, count int) string {
	return "shard " + string(rune('0'+i)) + "/" + string(rune('0'+count))
}

// post POSTs a JSON body and returns status and raw response bytes.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// normalizeMatchAll zeroes the fields that legitimately differ between
// a routed batch and a local one — wall-clock timings and cache
// provenance — and returns the re-marshalled bytes. Everything else
// (mode, hub, planned pairs, per-pair outcomes, clusters, conflicts)
// must match byte for byte.
func normalizeMatchAll(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp protocol.MatchAllResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode matchall: %v (%s)", err, raw)
	}
	resp.ElapsedMS = 0
	resp.Cache = protocol.CacheStats{}
	for i := range resp.Pairs {
		resp.Pairs[i].ElapsedMS = 0
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// forEachFleetSize runs test against fleets of 1 to 5 shards: the
// fleet must equal the single binary for any shard count.
func forEachFleetSize(t *testing.T, test func(t *testing.T, f *fleet)) {
	for count := 1; count <= 5; count++ {
		t.Run(fmt.Sprintf("shards=%d", count), func(t *testing.T) { test(t, startFleet(t, count)) })
	}
}

// TestMatchAllByteIdentical is the tentpole acceptance gate: a
// scatter-gathered /v1/matchall must serialize byte-identically to a
// single binary's — clusters, induced correspondences, planned pairs —
// in both pivot and direct modes, with threshold overrides too.
func TestMatchAllByteIdentical(t *testing.T) {
	forEachFleetSize(t, testMatchAllByteIdentical)
}

func testMatchAllByteIdentical(t *testing.T, f *fleet) {
	for _, body := range []string{
		`{"all":true}`,
		`{"all":true,"mode":"direct"}`,
		`{"all":true,"tsim":0.8}`,
	} {
		gotStatus, got := post(t, f.rtSrv.URL+"/v1/matchall", body)
		wantStatus, want := post(t, f.single.URL+"/v1/matchall", body)
		if gotStatus != http.StatusOK || wantStatus != http.StatusOK {
			t.Fatalf("%s: router %d, single %d", body, gotStatus, wantStatus)
		}
		gotN, wantN := normalizeMatchAll(t, got), normalizeMatchAll(t, want)
		if !bytes.Equal(gotN, wantN) {
			t.Errorf("%s: routed batch differs from single binary\nrouter: %s\nsingle: %s", body, gotN, wantN)
		}
	}

	// Induced correspondences reconstruct identically from both bodies.
	_, got := post(t, f.rtSrv.URL+"/v1/matchall", `{"all":true}`)
	_, want := post(t, f.single.URL+"/v1/matchall", `{"all":true}`)
	var gotAll, wantAll protocol.MatchAllResponse
	if err := json.Unmarshal(got, &gotAll); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantAll); err != nil {
		t.Fatal(err)
	}
	pair := wiki.OrientPair("pt", "vi", wiki.English) // transitive: never matched directly in pivot mode
	gi := gotAll.Induced(pair)
	wi := wantAll.Induced(pair)
	if len(gi) == 0 {
		t.Error("routed batch induced no pt-vi correspondences")
	}
	if !reflect.DeepEqual(gi, wi) {
		t.Errorf("induced correspondences differ:\nrouter: %v\nsingle: %v", gi, wi)
	}
	if len(gotAll.Planned) == 0 || len(gotAll.Clusters) == 0 {
		t.Fatalf("routed batch is hollow: planned=%d clusters=%d", len(gotAll.Planned), len(gotAll.Clusters))
	}
}

// TestUnaryRoutesToOwner: a pair request through the router answers
// identically (modulo timing) to the single binary, even though each
// shard would reject the pairs it does not own.
func TestUnaryRoutesToOwner(t *testing.T) {
	f := startFleet(t, 2)
	for _, body := range []string{`{"pair":"pt-en"}`, `{"pair":"vi-en"}`, `{"pair":"pt-en","type":"filme"}`} {
		gotStatus, got := post(t, f.rtSrv.URL+"/v1/match", body)
		wantStatus, want := post(t, f.single.URL+"/v1/match", body)
		if gotStatus != http.StatusOK || wantStatus != http.StatusOK {
			t.Fatalf("%s: router %d, single %d", body, gotStatus, wantStatus)
		}
		var gotR, wantR protocol.MatchResponse
		if err := json.Unmarshal(got, &gotR); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wantR); err != nil {
			t.Fatal(err)
		}
		gotR.ElapsedMS, wantR.ElapsedMS = 0, 0
		gotR.Cache, wantR.Cache = protocol.CacheStats{}, protocol.CacheStats{}
		for i := range gotR.Results {
			gotR.Results[i].ElapsedMS = 0
		}
		for i := range wantR.Results {
			wantR.Results[i].ElapsedMS = 0
		}
		gn, _ := json.Marshal(gotR)
		wn, _ := json.Marshal(wantR)
		if !bytes.Equal(gn, wn) {
			t.Errorf("%s: routed match differs\nrouter: %s\nsingle: %s", body, gn, wn)
		}
	}

	// Canonical validation errors come from the router itself.
	status, raw := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"nope"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid pair via router: status %d, body %s", status, raw)
	}
	var env protocol.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != protocol.CodeInvalidArgument {
		t.Fatalf("invalid pair envelope: %s", raw)
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-Id survives the
// router hop and reaches the owning shard.
func TestRequestIDPropagation(t *testing.T) {
	f := startFleet(t, 2)
	req, err := http.NewRequest(http.MethodPost, f.rtSrv.URL+"/v1/match", strings.NewReader(`{"pair":"pt-en"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "fleet-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "fleet-trace-1" {
		t.Errorf("router did not echo the request ID: %q", got)
	}
	owner := ShardFor(wiki.PtEn, 2)
	if got, _ := f.lastIDs[owner].Load().(string); got != "fleet-trace-1" {
		t.Errorf("shard %d saw request ID %q, want fleet-trace-1", owner, got)
	}

	// A router-minted ID propagates too: it is always set and valid.
	status, _ := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	owner = ShardFor(wiki.VnEn, 2)
	if got, _ := f.lastIDs[owner].Load().(string); got == "" {
		t.Error("shard saw no request ID on a router-minted request")
	}
}

// TestStreamThroughRouter: pair streams relay the owning shard's lines
// (types then a final summary); all-pairs streams scatter-gather with
// progress lines and a final response equal (normalized) to matchall.
func TestStreamThroughRouter(t *testing.T) {
	f := startFleet(t, 2)

	lines := streamLines(t, f.rtSrv.URL+"/v1/stream", `{"pair":"pt-en"}`)
	if len(lines) < 2 {
		t.Fatalf("pair stream produced %d lines", len(lines))
	}
	var sawType bool
	var final *protocol.MatchResponse
	for _, line := range lines {
		if line.Type != nil {
			sawType = true
		}
		if line.FinalMatch != nil {
			final = line.FinalMatch
		}
	}
	if !sawType || final == nil {
		t.Fatalf("pair stream missing type lines or final (types=%v final=%v)", sawType, final != nil)
	}
	if final.Pair != "pt-en" || len(final.Results) == 0 {
		t.Fatalf("hollow final: %+v", final)
	}

	lines = streamLines(t, f.rtSrv.URL+"/v1/stream", `{"all":true}`)
	var finalAll *protocol.MatchAllResponse
	pairLines := 0
	for _, line := range lines {
		if line.Pair != nil {
			pairLines++
		}
		if line.FinalAll != nil {
			finalAll = line.FinalAll
		}
	}
	if finalAll == nil || pairLines != len(finalAll.Planned) {
		t.Fatalf("all stream: %d pair lines, final %v", pairLines, finalAll != nil)
	}
	_, want := post(t, f.single.URL+"/v1/matchall", `{"all":true}`)
	finalRaw, err := json.Marshal(finalAll)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeMatchAll(t, finalRaw), normalizeMatchAll(t, want)) {
		t.Error("streamed final differs from single-binary matchall")
	}
}

func streamLines(t *testing.T, url, body string) []protocol.StreamLine {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	var lines []protocol.StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line protocol.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("decode line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestDeltaFanout: a corpus delta through the router reaches every
// shard, reports per-shard outcomes, and stays consistent (every shard
// lands on the same fingerprint).
func TestDeltaFanout(t *testing.T) {
	f := startFleet(t, 2)
	body := `{"upserts":[{"lang":"pt","title":"Cidade Frota","wikitext":"{{Infobox filme | nome = Cidade Frota}}"}]}`
	status, raw := post(t, f.rtSrv.URL+"/v1/corpus/delta", body)
	if status != http.StatusOK {
		t.Fatalf("delta status %d: %s", status, raw)
	}
	var resp protocol.FleetDeltaResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != protocol.FleetOK || !resp.Consistent || len(resp.Shards) != 2 {
		t.Fatalf("delta fan-out: %+v", resp)
	}
	for _, sd := range resp.Shards {
		if sd.Error != nil || sd.Response == nil || sd.Response.Added != 1 {
			t.Errorf("shard %d delta outcome: %+v", sd.Shard, sd)
		}
	}

	// A malformed delta is rejected router-side with the canonical
	// envelope and touches no shard.
	status, raw = post(t, f.rtSrv.URL+"/v1/corpus/delta", `{"upserts":[{"lang":"??","title":"x","wikitext":""}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad delta status %d: %s", status, raw)
	}
}

// TestInvalidateFanout: invalidation sums per-shard drop counts.
func TestInvalidateFanout(t *testing.T) {
	f := startFleet(t, 2)
	// Warm both shards.
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`)
	status, raw := post(t, f.rtSrv.URL+"/v1/invalidate", `{}`)
	if status != http.StatusOK {
		t.Fatalf("invalidate status %d: %s", status, raw)
	}
	var resp protocol.InvalidateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dropped < 2 || resp.Dropped != resp.Pairs+resp.Types {
		t.Fatalf("fleet invalidate summed wrong: %+v", resp)
	}
}

// TestCorpusAggregation: /v1/corpus serves the shared corpus stats with
// fleet-summed cache counters.
func TestCorpusAggregation(t *testing.T) {
	f := startFleet(t, 2)
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`)
	resp, err := http.Get(f.rtSrv.URL + "/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats protocol.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Corpus.Articles["pt"] == 0 || stats.Corpus.Articles["en"] == 0 {
		t.Fatalf("fleet corpus stats hollow: %+v", stats.Corpus.Articles)
	}
	// Both pairs were matched on different shards; the summed cache must
	// show both pair entries.
	if stats.Cache.PairEntries < 2 {
		t.Errorf("fleet cache PairEntries = %d, want >= 2", stats.Cache.PairEntries)
	}
	// Agreeing shards answer the single binary's corpus identity and
	// parameters.
	var single protocol.StatsResponse
	getJSON(t, f.single.URL+"/v1/corpus", &single)
	if stats.Fingerprint != single.Fingerprint || stats.Config != single.Config {
		t.Errorf("fleet serves fingerprint %s config %+v, single binary %s %+v",
			stats.Fingerprint, stats.Config, single.Fingerprint, single.Config)
	}
}

// TestCorpusDisagreement: when the answering shards serve different
// corpora or parameters, /v1/corpus answers 503 unavailable naming each
// shard instead of passing off one shard's identity as the fleet's.
func TestCorpusDisagreement(t *testing.T) {
	c := smallCorpus(t)
	otherCfg := synth.SmallConfig()
	otherCfg.Seed++
	other, _, err := synth.Generate(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, second := range map[string]*service.Session{
		"corpus": service.New(other),
		"config": service.New(c, service.WithTSim(0.7)),
	} {
		t.Run(name, func(t *testing.T) {
			var addrs []string
			for _, s := range []*service.Session{service.New(c), second} {
				srv := httptest.NewServer(service.NewHandler(s))
				t.Cleanup(srv.Close)
				addrs = append(addrs, srv.URL)
			}
			rt, err := New(addrs, WithHealthInterval(-1), WithClientOptions(client.WithRetries(0, time.Millisecond)))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			rtSrv := httptest.NewServer(rt.Handler())
			t.Cleanup(rtSrv.Close)

			resp, err := http.Get(rtSrv.URL + "/v1/corpus")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env protocol.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != protocol.CodeUnavailable {
				t.Fatalf("disagreeing shards: %d %+v, want 503 unavailable", resp.StatusCode, env.Error)
			}
			for i, addr := range addrs {
				if !strings.Contains(env.Error.Message, fmt.Sprintf("shard %d (%s)", i, addr)) {
					t.Errorf("message does not name shard %d: %s", i, env.Error.Message)
				}
			}
		})
	}
}

// TestHealthAndMetrics: the aggregated health and metrics endpoints
// report every shard.
func TestHealthAndMetrics(t *testing.T) {
	f := startFleet(t, 2)
	var health protocol.FleetHealth
	getJSON(t, f.rtSrv.URL+"/v1/healthz", &health)
	if health.Status != protocol.FleetOK || health.ShardsHealthy != 2 || health.ShardsTotal != 2 {
		t.Fatalf("fleet health: %+v", health)
	}
	if h := lastHealth(f.rt); h == nil || h.Status != protocol.FleetOK {
		t.Error("router did not record the probed health")
	}

	post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	var metrics protocol.FleetMetrics
	getJSON(t, f.rtSrv.URL+"/v1/metrics", &metrics)
	if metrics.Router.RequestsTotal == 0 {
		t.Error("router metrics did not count requests")
	}
	if len(metrics.Shards) != 2 {
		t.Fatalf("metrics shards = %d", len(metrics.Shards))
	}
	for _, sm := range metrics.Shards {
		if sm.Error != "" || sm.Metrics == nil {
			t.Errorf("shard %d metrics: %+v", sm.Shard, sm)
		}
	}
}

// lastHealth returns the router's most recent fleet-health observation,
// from the background poller or the last /v1/healthz probe, or nil
// before the first one.
func lastHealth(rt *Router) *protocol.FleetHealth {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	return rt.lastHealth
}

// TestHealthPoller: with a positive interval the background poller
// records fleet health without any /v1/healthz request.
func TestHealthPoller(t *testing.T) {
	f := startFleet(t, 2, WithHealthInterval(20*time.Millisecond))
	deadline := time.Now().Add(5 * time.Second)
	for lastHealth(f.rt) == nil {
		if time.Now().After(deadline) {
			t.Fatal("poller never recorded fleet health")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := lastHealth(f.rt); h.Status != protocol.FleetOK {
		t.Errorf("polled status = %s", h.Status)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestPartialFailure is the degraded-fleet gate: with one shard down,
// its pairs answer unavailable, scatter-gather keeps going with
// per-pair errors, health reports degraded, and deltas report the
// failed shard without aborting the healthy ones.
func TestPartialFailure(t *testing.T) {
	f := startFleet(t, 2)
	const count = 2
	deadShard := ShardFor(wiki.PtEn, count)
	f.shards[deadShard].Close()

	// Unary request for a dead-shard pair: retryable unavailable.
	status, raw := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"pt-en"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard match status %d: %s", status, raw)
	}
	var env protocol.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		t.Fatalf("dead-shard envelope: %s", raw)
	}
	if env.Error.Code != protocol.CodeUnavailable || !env.Error.Retryable {
		t.Fatalf("dead-shard envelope: %+v", env.Error)
	}

	// Pairs owned by the surviving shard still serve.
	alive := wiki.VnEn
	if ShardFor(alive, count) == deadShard {
		t.Fatalf("test corpus pairs all landed on one shard; pick different pairs")
	}
	if status, _ := post(t, f.rtSrv.URL+"/v1/match", `{"pair":"vi-en"}`); status != http.StatusOK {
		t.Fatalf("surviving shard match status %d", status)
	}

	// Scatter-gather: per-pair errors for the dead shard, results for
	// the rest, no abort.
	status, raw = post(t, f.rtSrv.URL+"/v1/matchall", `{"all":true}`)
	if status != http.StatusOK {
		t.Fatalf("degraded matchall status %d: %s", status, raw)
	}
	var all protocol.MatchAllResponse
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	failed, succeeded := 0, 0
	for _, p := range all.Pairs {
		if p.Error != "" {
			failed++
			if !strings.Contains(p.Error, "unavailable") {
				t.Errorf("pair %s failed with %q, want an unavailable-class error", p.Pair, p.Error)
			}
		} else {
			succeeded++
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("degraded batch: %d failed, %d succeeded — want both", failed, succeeded)
	}

	// Health: degraded, with the dead shard identified.
	var health protocol.FleetHealth
	getJSON(t, f.rtSrv.URL+"/v1/healthz", &health)
	if health.Status != protocol.FleetDegraded || health.ShardsHealthy != 1 {
		t.Fatalf("degraded health: %+v", health)
	}
	for _, s := range health.Shards {
		if s.Shard == deadShard && (s.Status != protocol.FleetDown || s.Error == "") {
			t.Errorf("dead shard health: %+v", s)
		}
	}

	// Delta fan-out: healthy shard applies, dead shard reports its
	// error, consistency is (rightly) lost.
	status, raw = post(t, f.rtSrv.URL+"/v1/corpus/delta",
		`{"upserts":[{"lang":"pt","title":"Vila Degradada","wikitext":"{{Infobox filme | nome = Vila Degradada}}"}]}`)
	if status != http.StatusOK {
		t.Fatalf("degraded delta status %d: %s", status, raw)
	}
	var dresp protocol.FleetDeltaResponse
	if err := json.Unmarshal(raw, &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Status != protocol.FleetDegraded || dresp.Consistent {
		t.Fatalf("degraded delta: %+v", dresp)
	}

	// Invalidate refuses to half-succeed silently.
	status, raw = post(t, f.rtSrv.URL+"/v1/invalidate", `{}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded invalidate status %d: %s", status, raw)
	}

	// Kill the rest: the fleet is down.
	f.shards[1-deadShard].Close()
	getJSON(t, f.rtSrv.URL+"/v1/healthz", &health)
	if health.Status != protocol.FleetDown || health.ShardsHealthy != 0 {
		t.Fatalf("down health: %+v", health)
	}
}

// TestRouterStatelessContract: requests the router cannot serve keep
// the canonical envelopes (bad method, unknown endpoint, pair-scoped
// matchall).
func TestRouterStatelessContract(t *testing.T) {
	f := startFleet(t, 2)
	resp, err := http.Get(f.rtSrv.URL + "/v1/match")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/match: %d", resp.StatusCode)
	}
	status, raw := post(t, f.rtSrv.URL+"/v1/matchall", `{"pair":"pt-en"}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("/v1/match")) {
		t.Errorf("pair-scoped matchall via router: %d %s", status, raw)
	}
	resp, err = http.Get(f.rtSrv.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown endpoint: %d", resp.StatusCode)
	}
	// Paths outside /v1 get the same structured envelope a replica sends.
	resp, err = http.Get(f.rtSrv.URL + "/match?pair=pt-en")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(raw, []byte(`"code":"not_found"`)) {
		t.Errorf("non-v1 path via router: %d %s", resp.StatusCode, raw)
	}
	status, _ = post(t, f.rtSrv.URL+"/v1/stream", `{"pair":"pt-en","type":"filme"}`)
	if status != http.StatusBadRequest {
		t.Errorf("single-type stream via router: %d", status)
	}
}

// TestRouterAgainstFilteredRestore ties the whole shard story together:
// replicas warm-restored from a filtered snapshot serve their owned
// slice entirely from cache through the router, byte-identical to the
// session that wrote the snapshot.
func TestRouterAgainstFilteredRestore(t *testing.T) {
	c := smallCorpus(t)
	warm := service.New(c)
	ctx := context.Background()
	for _, pair := range []wiki.LanguagePair{wiki.PtEn, wiki.VnEn} {
		if _, err := warm.Match(ctx, pair); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		t.Fatal(err)
	}

	const count = 2
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		s, err := service.RestoreFiltered(c, bytes.NewReader(buf.Bytes()), Owned(i, count))
		if err != nil {
			t.Fatalf("shard %d restore: %v", i, err)
		}
		srv := httptest.NewServer(service.NewHandler(s, service.WithShardGate(shardLabel(i, count), Owned(i, count))))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	rt, err := New(addrs, WithHealthInterval(-1), WithClientOptions(client.WithRetries(0, time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)

	for _, pair := range []string{"pt-en", "vi-en"} {
		status, raw := post(t, rtSrv.URL+"/v1/match", `{"pair":"`+pair+`"}`)
		if status != http.StatusOK {
			t.Fatalf("%s via fleet: %d %s", pair, status, raw)
		}
		var resp protocol.MatchResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cache.Misses != 0 {
			t.Errorf("%s: shard rebuilt %d artifacts; the filtered restore should have seeded them all", pair, resp.Cache.Misses)
		}
		if resp.Cache.RestoredPairs != 1 {
			t.Errorf("%s: owning shard restored %d pairs, want exactly its 1", pair, resp.Cache.RestoredPairs)
		}
	}
}

// normalizeAudit zeroes the wall-clock and cache-provenance fields of an
// audit body, like normalizeMatchAll.
func normalizeAudit(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp protocol.AuditResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode audit: %v (%s)", err, raw)
	}
	resp.ElapsedMS = 0
	resp.Cache = protocol.CacheStats{}
	for i := range resp.Pairs {
		resp.Pairs[i].ElapsedMS = 0
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAuditByteIdentical is the audit acceptance gate: a routed
// /v1/audit — matching scatter-gathered across the fleet, value
// comparison forwarded to one shard — must serialize byte-identically
// to a single binary's, modulo timings and cache provenance.
func TestAuditByteIdentical(t *testing.T) {
	forEachFleetSize(t, testAuditByteIdentical)
}

func testAuditByteIdentical(t *testing.T, f *fleet) {
	// A body carrying pre-merged clusters skips the matching phase: the
	// router hands it straight to one shard's value comparison.
	status, raw := post(t, f.single.URL+"/v1/matchall", `{"all":true}`)
	if status != http.StatusOK {
		t.Fatalf("single-binary matchall: %d %s", status, raw)
	}
	var all protocol.MatchAllResponse
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	clusters, err := json.Marshal(protocol.AuditRequest{Clusters: all.Clusters, MinSeverity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	clusterBody := string(clusters)

	for _, body := range []string{
		`{}`,
		`{"mode":"direct"}`,
		`{"minSeverity":0.5,"limit":5}`,
		`{"pair":"pt-en"}`,
		clusterBody,
	} {
		gotStatus, got := post(t, f.rtSrv.URL+"/v1/audit", body)
		wantStatus, want := post(t, f.single.URL+"/v1/audit", body)
		if gotStatus != http.StatusOK || wantStatus != http.StatusOK {
			t.Fatalf("%.80s: router %d, single %d (%s / %s)", body, gotStatus, wantStatus, got, want)
		}
		gotN, wantN := normalizeAudit(t, got), normalizeAudit(t, want)
		if !bytes.Equal(gotN, wantN) {
			t.Errorf("%.80s: routed audit differs from single binary\nrouter: %s\nsingle: %s", body, gotN, wantN)
		}
	}

	// The cluster-bearing stream's final line equals the single binary's
	// unary answer, and every finding is streamed.
	_, want := post(t, f.single.URL+"/v1/audit", clusterBody)
	var final *protocol.AuditResponse
	findingLines := 0
	for _, line := range streamLines(t, f.rtSrv.URL+"/v1/audit/stream", clusterBody) {
		if line.Pair != nil {
			t.Fatal("cluster-bearing audit stream ran a matching phase")
		}
		if line.Finding != nil {
			findingLines++
		}
		if line.FinalAudit != nil {
			final = line.FinalAudit
		}
	}
	if final == nil || len(final.Findings) == 0 || findingLines != len(final.Findings) {
		t.Fatalf("cluster-bearing audit stream: final %v, %d finding lines", final != nil, findingLines)
	}
	finalRaw, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if gotN, wantN := normalizeAudit(t, finalRaw), normalizeAudit(t, want); !bytes.Equal(gotN, wantN) {
		t.Errorf("cluster-bearing stream final differs from single binary\nrouter: %s\nsingle: %s", gotN, wantN)
	}

	// The report is non-hollow and ranked.
	_, raw = post(t, f.rtSrv.URL+"/v1/audit", `{}`)
	var resp protocol.AuditResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Entities == 0 || resp.Compared == 0 || resp.Clusters == 0 {
		t.Fatalf("hollow routed audit: %+v", resp)
	}
	for i := 1; i < len(resp.Findings); i++ {
		if resp.Findings[i].Severity > resp.Findings[i-1].Severity {
			t.Errorf("routed findings not ranked at %d", i)
		}
	}

	// Canonical validation errors come from the router itself.
	status, raw = post(t, f.rtSrv.URL+"/v1/audit", `{"mode":"nope"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad mode via router: %d %s", status, raw)
	}
	status, raw = post(t, f.rtSrv.URL+"/v1/audit", `{"hub":"de"}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown hub via router: %d %s", status, raw)
	}

	// A shard replica refuses a cluster-less audit: the matching phase
	// belongs to the router.
	status, raw = post(t, f.shards[0].URL+"/v1/audit", `{}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("router")) {
		t.Fatalf("replica accepted a cluster-less audit: %d %s", status, raw)
	}
}

// TestAuditStreamThroughRouter: the routed audit stream emits the
// matching phase's pair lines, the ranked finding lines, and a final
// equal (normalized) to the unary routed audit.
func TestAuditStreamThroughRouter(t *testing.T) {
	f := startFleet(t, 2)
	lines := streamLines(t, f.rtSrv.URL+"/v1/audit/stream", `{}`)
	pairLines, findingLines := 0, 0
	var final *protocol.AuditResponse
	for _, line := range lines {
		if line.Pair != nil {
			pairLines++
		}
		if line.Finding != nil {
			findingLines++
		}
		if line.FinalAudit != nil {
			final = line.FinalAudit
		}
	}
	if final == nil || pairLines == 0 {
		t.Fatalf("audit stream: %d pair lines, final %v", pairLines, final != nil)
	}
	if findingLines != len(final.Findings) {
		t.Fatalf("audit stream: %d finding lines, final has %d", findingLines, len(final.Findings))
	}
	wantStatus, want := post(t, f.single.URL+"/v1/audit", `{}`)
	if wantStatus != http.StatusOK {
		t.Fatalf("single-binary audit: %d %s", wantStatus, want)
	}
	finalRaw, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeAudit(t, finalRaw), normalizeAudit(t, want)) {
		t.Error("streamed audit final differs from single-binary audit")
	}
	// A hub outside the corpus fails before the stream starts, with the
	// single binary's status and envelope.
	gotStatus, got := post(t, f.rtSrv.URL+"/v1/audit/stream", `{"hub":"de"}`)
	wantStatus, want = post(t, f.single.URL+"/v1/audit/stream", `{"hub":"de"}`)
	if gotStatus != http.StatusNotFound || gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Errorf("unknown hub stream: router %d %s, single %d %s", gotStatus, got, wantStatus, want)
	}
}

// TestAbandonedRoutedStreamsSettle: a client that walks away halfway
// through a routed all-pairs /v1/stream or /v1/audit/stream leaves
// nothing running. The router cancels its matching phase and the
// shard calls, the shards drop or finish their builds, and the
// goroutine count returns to its baseline.
func TestAbandonedRoutedStreamsSettle(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/stream", `{"all":true,"workers":1}`},
		{"/v1/audit/stream", `{"workers":1}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			f := startFleet(t, 2)
			base := settledGoroutines()
			resp, err := http.Post(f.rtSrv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
			resp.Body.Close()
			if err != nil || !bytes.Contains(line, []byte(`"pair":{`)) {
				t.Fatalf("first line %q (%v), want a pair progress line", line, err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for liveGoroutines() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// liveGoroutines closes the idle keep-alive connections of the default
// transport, which the test client and the router's shard clients
// share, and counts the goroutines left.
func liveGoroutines() int {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return runtime.NumGoroutine()
}

// settledGoroutines waits for the goroutine count to hold still over
// three samples, so goroutines of earlier tests still winding down do
// not inflate the baseline.
func settledGoroutines() int {
	n, same := liveGoroutines(), 0
	for same < 3 {
		time.Sleep(10 * time.Millisecond)
		if m := liveGoroutines(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
