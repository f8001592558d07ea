// Command wikimatchd serves WikiMatch over HTTP: it generates (or loads)
// a multilingual corpus, opens one shared matching session, and exposes
// matching, streaming and corpus inspection through wire protocol v1 —
// typed POST JSON endpoints under /v1/ with structured error envelopes.
// The session's artifact
// cache makes repeated requests cheap — the first match for a pair
// builds the dictionary and the per-type LSI models, every later request
// reuses them.
//
// Every request runs through the middleware stack: request IDs, access
// logging, a per-request timeout, a concurrency limiter that sheds
// excess load with 429 + Retry-After, panic recovery, and counters
// served at /v1/metrics.
//
// With -store, the daemon completes the offline/online split: on boot it
// warm-starts the session from a snapshot written by `wikimatch
// precompute` (or by a previous run), and on graceful shutdown it
// flushes the current artifact cache back to the same path atomically. A
// snapshot that does not match the corpus (fingerprint) or the requested
// configuration is rejected with a logged warning and the daemon falls
// back to a cold session — stale artifacts are never served.
//
// Usage:
//
//	wikimatchd [-addr :8080] [-scale small|full]
//	           [-dumps dir]       ingest dumps (DBpedia <lang>-*.ttl[.gz|.bz2],
//	                              MediaWiki <lang>.xml) instead of generating
//	           [-store file]      warm-start from snapshot; flush on shutdown
//	           [-max-concurrent 64] [-max-streams 16]
//	           [-request-timeout 5m] [-max-body 1048576]
//	           [-tsim 0.6] [-tlsi 0.1]
//	           [-shard-index N -shard-count M]  serve as one shard of an M-replica fleet
//	wikimatchd -router -shards host:port,host:port,...
//	           [-health-interval 15s] [-hedge 0]
//
// Fleet mode: with -router the daemon serves no corpus of its own;
// instead it fronts the listed shard replicas behind the same /v1
// surface, routing each pair request to the replica the deterministic
// shard map assigns it and scatter-gathering all-pairs batches across
// the fleet into responses byte-identical to a single binary's. Each
// replica is started with the matching -shard-index/-shard-count so it
// warm-loads (and serves) only its owned slice of the snapshot;
// requests for unowned pairs answer 503 pointing back at the router. A
// sharded replica never flushes its snapshot on shutdown — its cache
// holds only a slice, and flushing would clobber the full snapshot.
//
//	wikimatch precompute -scale full -store artifacts.wmsnap
//	wikimatchd -addr :8081 -store artifacts.wmsnap -shard-index 0 -shard-count 2 &
//	wikimatchd -addr :8082 -store artifacts.wmsnap -shard-index 1 -shard-count 2 &
//	wikimatchd -addr :8080 -router -shards localhost:8081,localhost:8082
//	wikimatch matchall -remote http://localhost:8080
//
// Protocol v1 endpoints:
//
//	POST /v1/match        pair or single-type match (JSON MatchRequest)
//	POST /v1/matchall     all-pairs batch: correspondence clusters
//	POST /v1/stream       NDJSON progress stream (pair or all-pairs)
//	POST /v1/audit        cross-edition value audit: ranked findings
//	POST /v1/audit/stream NDJSON audit: pair progress, then findings
//	GET  /v1/corpus       corpus, fingerprint, cache and parameters
//	POST /v1/corpus/delta apply article upserts/removes to the live corpus
//	POST /v1/invalidate   drop cached artifacts ({"lang":"pt"})
//	GET  /v1/healthz      liveness: uptime, snapshot age, cache stats
//	GET  /v1/metrics      middleware counters
//
// Try:
//
//	wikimatch precompute -scale full -store artifacts.wmsnap
//	wikimatchd -scale full -store artifacts.wmsnap
//	curl localhost:8080/v1/healthz
//	curl -X POST localhost:8080/v1/match -d '{"pair":"vi-en"}'
//	wikimatch -remote http://localhost:8080 -pair vi-en
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.String("scale", "small", "generated corpus scale: small or full")
	dumpsDir := flag.String("dumps", "", "directory with dumps to ingest (DBpedia <lang>-*.ttl[.gz|.bz2], MediaWiki <lang>.xml) instead of generating")
	storePath := flag.String("store", "", "artifact snapshot file: warm-start from it on boot, flush to it on shutdown")
	maxConcurrent := flag.Int("max-concurrent", 64, "max concurrently served requests (0 = unlimited); excess gets 429")
	maxStreams := flag.Int("max-streams", 16, "max concurrently served NDJSON streams (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-request timeout for non-streaming endpoints (0 = none)")
	maxBody := flag.Int64("max-body", 1<<20, "max request body bytes")
	tsim := flag.Float64("tsim", 0.6, "certain-match threshold Tsim")
	tlsi := flag.Float64("tlsi", 0.1, "correlation threshold TLSI")
	routerMode := flag.Bool("router", false, "run as a fleet router over -shards instead of serving a corpus")
	shardAddrs := flag.String("shards", "", "comma-separated shard replica addresses in shard-index order (router mode)")
	healthInterval := flag.Duration("health-interval", 15*time.Second, "router: shard health-poll cadence (negative disables the poller)")
	hedge := flag.Duration("hedge", 0, "router: hedge read-only shard requests still pending after this delay (0 disables)")
	shardIndex := flag.Int("shard-index", -1, "serve as this shard of a -shard-count fleet: only owned pairs are loaded and served")
	shardCount := flag.Int("shard-count", 0, "total replicas in the fleet (required with -shard-index)")
	flag.Parse()
	corpusCfg, err := synth.ScaleConfig(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wikimatchd:", err)
		os.Exit(2)
	}

	middleware := []repro.HTTPHandlerOption{
		repro.WithMaxConcurrent(*maxConcurrent),
		repro.WithMaxStreams(*maxStreams),
		repro.WithRequestTimeout(*requestTimeout),
		repro.WithMaxBodyBytes(*maxBody),
		repro.WithAccessLog(log.Default()),
	}
	if *routerMode {
		runRouter(*addr, *shardAddrs, *healthInterval, *hedge, middleware)
		return
	}
	keep, shardLabel, err := shardFilter(*shardIndex, *shardCount)
	if err != nil {
		log.Fatal(err)
	}

	corpus, err := buildCorpus(*dumpsDir, corpusCfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := corpus.Stats()
	log.Printf("corpus ready: %v articles, %v infoboxes, %v cross pairs",
		stats.Articles, stats.Infoboxes, stats.CrossPairs)

	opts := []repro.SessionOption{repro.WithTSim(*tsim), repro.WithTLSI(*tlsi)}
	session, flushOnExit := openSession(corpus, *storePath, keep, opts)
	if keep != nil {
		// A sharded replica's cache holds only its owned slice; flushing
		// it would clobber the full snapshot every replica boots from.
		flushOnExit = false
		log.Printf("serving as %s: unowned pairs answer 503 unavailable; snapshot flush disabled", shardLabel)
		middleware = append(middleware, repro.WithShardGate(shardLabel, keep))
	}

	serve(repro.NewHTTPHandler(session, middleware...), *addr,
		fmt.Sprintf("wikimatchd listening on %s", *addr))
	if flushOnExit {
		start := time.Now()
		if err := repro.SaveSessionSnapshot(session, *storePath); err != nil {
			log.Printf("snapshot flush failed: %v", err)
		} else {
			cs := session.CacheStats()
			log.Printf("snapshot flushed to %s in %v (%d pairs, %d types)",
				*storePath, time.Since(start).Round(time.Millisecond), cs.PairEntries, cs.TypeEntries)
		}
	}
	log.Print("wikimatchd stopped")
}

// openSession warm-starts from the snapshot when possible, falling back
// to a cold session on any load failure (missing file, stale
// fingerprint, mismatched configuration, corruption) — the daemon must
// come up either way. flushOnExit reports whether the shutdown path may
// write the snapshot back: true after a successful restore or when no
// snapshot exists yet, false when an existing snapshot was rejected —
// a daemon pointed at the wrong corpus (the wrong -scale, say) must not
// clobber somebody else's precomputed artifacts.
func openSession(corpus *repro.Corpus, storePath string, keep func(repro.LanguagePair) bool, opts []repro.SessionOption) (_ *repro.Session, flushOnExit bool) {
	if storePath == "" {
		return repro.NewSession(corpus, opts...), false
	}
	start := time.Now()
	session, err := repro.RestoreSessionFromFile(corpus, storePath, keep, opts...)
	switch {
	case err == nil:
		cs := session.CacheStats()
		log.Printf("warm start: restored %d pairs, %d types from %s in %v",
			cs.RestoredPairs, cs.RestoredTypes, storePath, time.Since(start).Round(time.Millisecond))
		return session, true
	case os.IsNotExist(err):
		log.Printf("no snapshot at %s; starting cold (will flush on shutdown)", storePath)
		return repro.NewSession(corpus, opts...), true
	default:
		log.Printf("snapshot %s rejected: %v; starting cold (snapshot left untouched)", storePath, err)
		return repro.NewSession(corpus, opts...), false
	}
}

// shardFilter resolves the -shard-index/-shard-count pair into the
// ownership predicate the replica gates and warm-loads with. Both flags
// unset means single-binary mode (nil predicate).
func shardFilter(index, count int) (func(repro.LanguagePair) bool, string, error) {
	if index < 0 && count == 0 {
		return nil, "", nil
	}
	if index < 0 || count <= index {
		return nil, "", fmt.Errorf("-shard-index %d and -shard-count %d must satisfy 0 <= index < count", index, count)
	}
	return repro.ShardOwned(index, count), fmt.Sprintf("shard %d/%d", index, count), nil
}

// runRouter serves fleet-router mode: no corpus, no session — just the
// coordinator over the listed shard replicas, with the same middleware
// stack and graceful shutdown as a single binary.
func runRouter(addr, shardAddrs string, healthInterval, hedge time.Duration, middleware []repro.HTTPHandlerOption) {
	var addrs []string
	for _, a := range strings.Split(shardAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("-router requires -shards host:port[,host:port...]")
	}
	var clientOpts []repro.APIClientOption
	if hedge > 0 {
		clientOpts = append(clientOpts, repro.WithHedge(hedge))
	}
	rt, err := repro.NewFleetRouter(addrs,
		repro.WithFleetHealthInterval(healthInterval),
		repro.WithFleetLogger(log.Default()),
		repro.WithFleetClientOptions(clientOpts...),
		repro.WithFleetHandlerOptions(middleware...),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	serve(rt.Handler(), addr,
		fmt.Sprintf("wikimatchd router listening on %s over %d shards", addr, len(addrs)))
	log.Print("wikimatchd router stopped")
}

// serve runs the HTTP server on addr until SIGINT or SIGTERM, then shuts
// it down gracefully and returns once in-flight requests have drained
// (for at most 10 seconds).
func serve(handler http.Handler, addr, banner string) {
	server := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		// WriteTimeout bounds the whole response, including long matches
		// and NDJSON streams, so it is generous; the middleware's
		// per-request timeout and per-line stream write deadlines are the
		// tighter guards. IdleTimeout reaps idle keep-alive connections.
		WriteTimeout: 10 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = server.Shutdown(shutdownCtx)
	}()

	log.Printf("%s (protocol %s under /v1/)", banner, repro.ProtocolVersion)
	if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the
	// drain of in-flight requests to actually finish.
	stop()
	<-shutdownDone
}

// buildCorpus ingests every recognized dump in dir when given (DBpedia
// TTL and MediaWiki XML, any language set, transparently compressed),
// otherwise generates the synthetic corpus at the requested scale.
func buildCorpus(dir string, cfg synth.Config) (*repro.Corpus, error) {
	if dir != "" {
		res, err := repro.IngestDir(context.Background(), dir, repro.IngestOptions{
			Progress: func(ev repro.IngestProgress) {
				log.Printf("ingested %s (%s, %d bytes): %d triples, %d pages",
					ev.Path, ev.Format, ev.Bytes, ev.Triples, ev.Pages)
			},
		})
		if err != nil {
			return nil, err
		}
		tot := res.Totals()
		log.Printf("ingest: %d editions, %d files, %d bytes, %d entities (%d skipped units) in %v",
			len(res.PerLang), tot.Files, res.Bytes, tot.Entities, tot.SkippedTotal(),
			res.Elapsed.Round(time.Millisecond))
		return res.Corpus, nil
	}
	corpus, _, err := repro.GenerateCorpus(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	return corpus, nil
}
