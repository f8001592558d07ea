// Package repro is a from-scratch Go implementation of WikiMatch, the
// multilingual infobox schema-matching system of Nguyen, Moreira, Nguyen,
// Nguyen and Freire, "Multilingual Schema Matching for Wikipedia
// Infoboxes" (PVLDB 5(2), 2011).
//
// The package is the public surface the examples and commands program
// against. It exports only the names one of them (or a README snippet)
// uses — TestFacadeSurface fails on any other — so it is a short entry
// point, not a mirror of the internal packages:
//
//   - the data model and dumps: Corpus, Article, the paper's language
//     pairs, XML and TTL dump writing and ingestion (internal/wiki,
//     internal/dump, internal/ingest);
//   - the seeded synthetic multilingual Wikipedia standing in for the
//     paper's Portuguese/Vietnamese/English dumps (internal/synth);
//   - matching through a long-lived Session: the WikiMatch matcher,
//     all-pairs batches and cross-edition audits (internal/service,
//     internal/core, internal/multi, internal/audit);
//   - wire protocol v1, its client SDK, the HTTP handler and the fleet
//     router (internal/protocol, internal/client, internal/router);
//   - the paper's Bouma and COMA++-style baselines, its evaluation
//     metrics, the WikiQuery case study and the experiment harness
//     (internal/baselines, internal/eval, internal/query,
//     internal/experiments).
//
// Quick start:
//
//	corpus, truth, _ := repro.GenerateCorpus(repro.SmallCorpus())
//	result := repro.Match(corpus, repro.PtEn)
//	for _, tr := range result.PerType {
//	    fmt.Println(tr.TypeA, "→", tr.CrossPairsSorted())
//	}
//	_ = truth
package repro

import (
	"context"
	"io"
	"net/http"
	"os"

	"repro/internal/audit"
	"repro/internal/baselines"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/dump"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/text"
	"repro/internal/wiki"
)

// Normalize lowercases, folds diacritics and collapses whitespace — the
// canonical form the matcher keys attribute names and titles by.
func Normalize(s string) string { return text.Normalize(s) }

// Core data model.
type (
	// LanguagePair names the two editions being matched.
	LanguagePair = wiki.LanguagePair
	// Article is a Wikipedia page with its infobox and cross-language
	// links.
	Article = wiki.Article
	// Corpus is a multi-language article collection with the indices the
	// matcher needs.
	Corpus = wiki.Corpus
)

// Language editions and pairs used in the paper.
var (
	English    = wiki.English
	Portuguese = wiki.Portuguese
	Vietnamese = wiki.Vietnamese
	PtEn       = wiki.PtEn
	VnEn       = wiki.VnEn
)

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return wiki.NewCorpus() }

// SmallCorpus is a fast synthetic-corpus configuration for tests and
// demos.
func SmallCorpus() synth.Config { return synth.SmallConfig() }

// GenerateCorpus builds the synthetic corpus and its ground truth.
func GenerateCorpus(cfg synth.Config) (*Corpus, *synth.GroundTruth, error) {
	return synth.Generate(cfg)
}

// DefaultEditionsCorpus is the 12-edition star configuration of the
// multi-edition generator: English hub, no non-hub links, so every
// non-hub pair is transitive-only.
func DefaultEditionsCorpus() synth.EditionsConfig { return synth.DefaultEditions() }

// GenerateEditions builds the multi-edition corpus and its truth.
func GenerateEditions(cfg synth.EditionsConfig) (*Corpus, *synth.EditionsTruth, error) {
	return synth.Editions(cfg)
}

// Real-dump ingestion (internal/ingest): streaming, bounded-memory
// loading of DBpedia infobox-properties / interlanguage-links N-Triples
// dumps and MediaWiki XML dumps into a corpus, with transparent
// gzip/bzip2 decoding, per-reason skip accounting and a language set
// driven entirely by the data.
type (
	// IngestOptions configures an ingestion run (language filter,
	// workers, dry run, progress).
	IngestOptions = ingest.Options
	// IngestProgress reports one completed source file.
	IngestProgress = ingest.Progress
)

// IngestDir ingests every recognized dump file in a directory
// (<lang>-infobox-properties*.ttl, <lang>-interlanguage-links*.ttl,
// <lang>.xml, each optionally .gz/.bz2) into one corpus.
func IngestDir(ctx context.Context, dir string, opts IngestOptions) (*ingest.Result, error) {
	return ingest.Dir(ctx, dir, opts)
}

// WritePropertiesDump renders one edition's infoboxes as a DBpedia
// infobox-properties N-Triples dump — the inverse of ingestion.
func WritePropertiesDump(w io.Writer, c *Corpus, lang wiki.Language) error {
	return ingest.WriteProperties(w, c, lang)
}

// WriteLinksDump renders one edition's cross-language links as a
// DBpedia interlanguage-links N-Triples dump (owl:sameAs).
func WriteLinksDump(w io.Writer, c *Corpus, lang wiki.Language) error {
	return ingest.WriteLinks(w, c, lang)
}

// LoadDump parses a MediaWiki XML dump into the corpus; lang overrides
// the dump's own language hint when non-empty.
func LoadDump(c *Corpus, r io.Reader, lang wiki.Language) (dump.LoadResult, error) {
	return dump.LoadCorpus(c, r, lang)
}

// WriteDump renders one language edition as a MediaWiki XML dump.
func WriteDump(w io.Writer, c *Corpus, lang wiki.Language) error {
	return dump.WriteCorpus(w, c, lang)
}

// MatcherConfig holds WikiMatch's thresholds and ablation switches.
type MatcherConfig = core.Config

// DefaultMatcherConfig returns the paper's configuration (Tsim = 0.6,
// TLSI = 0.1).
func DefaultMatcherConfig() MatcherConfig { return core.DefaultConfig() }

// Match runs WikiMatch with the paper's default configuration. It is a
// thin wrapper over a throwaway Session; callers doing more than one
// match should create a Session themselves so the per-pair dictionary
// and per-type LSI artifacts are built once and reused.
func Match(c *Corpus, pair LanguagePair) *core.Result {
	res, _ := NewSession(c).Match(context.Background(), pair)
	return res
}

// Sessions: the long-lived service API.
type (
	// Session is a long-lived matching service over one corpus: it caches
	// per-pair dictionaries, entity-type alignments and per-type LSI
	// artifacts so repeated and overlapping matches reuse work. All
	// methods are safe for concurrent use and honour context
	// cancellation.
	Session = service.Session
	// SessionOption adjusts a session's matcher configuration.
	SessionOption = service.Option
	// ArticleKey identifies one article (language + title) in a corpus —
	// the unit CorpusDelta removals name.
	ArticleKey = wiki.Key
	// CorpusDelta is a batch of corpus edits (whole-article upserts and
	// removals) for Session.ApplyDelta.
	CorpusDelta = wiki.Delta
)

// NewSession creates a matching session over the corpus. Options start
// from the paper's default configuration.
func NewSession(c *Corpus, opts ...SessionOption) *Session {
	return service.New(c, opts...)
}

// Session options.
var (
	// WithTSim sets the certain-match threshold Tsim (paper: 0.6).
	WithTSim = service.WithTSim
	// WithTLSI sets the LSI correlation threshold TLSI (paper: 0.1).
	WithTLSI = service.WithTLSI
)

// All-pairs multilingual matching: Session.MatchAll / MatchAllStream
// plan the language-pair DAG (pivot through a hub edition, or direct
// all-pairs), run it on a bounded worker pool over the session's shared
// artifact cache, and merge the pairwise correspondences into
// cross-language attribute clusters with transitive derivation,
// agreement scoring and direct-vs-transitive conflict detection
// (internal/multi).
type (
	// MultiOptions configures an all-pairs batch (mode, hub, workers).
	MultiOptions = multi.Options
	// BatchResult is a completed all-pairs run: per-pair outcomes plus
	// the merged correspondence clusters.
	BatchResult = multi.BatchResult
)

// Batch modes.
const (
	// ModePivot matches every language against the hub and derives the
	// rest transitively (N−1 runs).
	ModePivot = multi.ModePivot
	// ModeDirect matches every unordered pair head on (N(N−1)/2 runs)
	// and cross-checks direct matches against transitive chains.
	ModeDirect = multi.ModeDirect
)

// Cross-edition value auditing: compare every cross-linked entity's
// values across the matched attribute clusters with typed normalizers
// (numbers, dates, units, currencies) and rank the disagreements
// (internal/audit). The service surface is POST /v1/audit and
// /v1/audit/stream; in process, Audit runs over any cluster set.
type (
	// AuditOptions tunes a report (severity floor, length cap).
	AuditOptions = audit.Options
	// AuditRequest is the typed /v1/audit request.
	AuditRequest = protocol.AuditRequest
	// AuditResponse answers /v1/audit.
	AuditResponse = protocol.AuditResponse
	// AuditFindingJSON is the wire shape of one ranked inconsistency.
	AuditFindingJSON = protocol.AuditFinding
)

// Audit compares values across editions for every cross-linked entity,
// using the correspondence clusters of an all-pairs batch
// (Session.MatchAll), and returns the ranked inconsistency report.
func Audit(c *Corpus, clusters []multi.Cluster, opts AuditOptions) *audit.Report {
	return audit.Run(c, clusters, opts)
}

// AuditEvalCorpus is SmallCorpus with rendering noise disabled and
// known inconsistencies injected (ledgered in the ground truth) — the
// configuration the audit detector's precision/recall is scored
// against.
func AuditEvalCorpus() synth.Config { return synth.AuditEvalConfig() }

// EvaluateAudit scores a report's findings against the ground truth's
// injection ledger: precision over findings at or above minSeverity,
// recall over all injections.
func EvaluateAudit(findings []audit.Finding, truth *synth.GroundTruth, minSeverity float64) audit.EvalResult {
	return audit.Evaluate(findings, truth, minSeverity)
}

// Persistence: the offline/online split. A warm session's artifact
// cache can be saved as a versioned binary snapshot (Session.Save,
// internal/store format) and restored in another process, so servers
// boot with precomputed dictionaries and LSI models instead of
// rebuilding them from the corpus.

// SaveSessionSnapshot writes the session's completed artifact cache to
// path atomically (temp file + fsync + rename): a crash mid-write never
// leaves a partial snapshot behind.
func SaveSessionSnapshot(s *Session, path string) error {
	return store.WriteFile(path, s.Save)
}

// RestoreSessionFromFile builds a warm session from a snapshot file
// written by SaveSessionSnapshot. keep selects the language pairs whose
// artifacts are loaded — how a shard replica warm-starts with just its
// slice (see ShardOwned); a nil keep restores everything. The snapshot
// must have been built from the same corpus (validated by fingerprint)
// and with the same artifact-shaping configuration (dictionary use, LSI
// rank, SVD path); otherwise a typed error from internal/store is
// returned and nothing is loaded. Matching thresholds may be adjusted
// freely via opts. A restored session's Match results are
// byte-identical to a cold build's.
func RestoreSessionFromFile(c *Corpus, path string, keep func(LanguagePair) bool, opts ...SessionOption) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return service.RestoreFiltered(c, f, keep, opts...)
}

// Wire protocol v1: the typed request/response API served under /v1/
// and spoken by the client SDK. One MatchRequest shape drives pair,
// single-type and all-pairs matching, unary or streaming, with a shared
// validation path across the in-process Session, the HTTP layer and the
// CLI; errors are structured envelopes with stable codes.
type (
	// MatchRequest is the typed request of protocol v1.
	MatchRequest = protocol.MatchRequest
	// MatchAllResponse answers an all-pairs batch.
	MatchAllResponse = protocol.MatchAllResponse
	// TypeMatchResultJSON is the wire form of one entity type's
	// alignment outcome.
	TypeMatchResultJSON = protocol.TypeResult
	// APIError is the structured protocol error (code / message /
	// retryable / details); it is both the wire envelope's payload and
	// the error value returned in process.
	APIError = protocol.Error
)

// ProtocolVersion is the wire protocol version ("v1").
const ProtocolVersion = protocol.Version

// The client SDK: a typed HTTP client for a running wikimatchd and an
// in-process backend over a Session serving the same interface.
type (
	// APIClientOption adjusts the client NewAPIClient returns.
	APIClientOption = client.Option
	// Backend is the protocol surface shared by the HTTP client and the
	// in-process backend.
	Backend = client.Backend
)

// NewAPIClient creates a protocol v1 client for a wikimatchd base URL:
// unary calls, a streaming iterator, and retries on retryable codes.
func NewAPIClient(base string, opts ...APIClientOption) (*client.Client, error) {
	return client.New(base, opts...)
}

// NewLocalBackend wraps a session as a Backend, so code written against
// the protocol runs in process without a server.
func NewLocalBackend(s *Session) client.Local { return client.NewLocal(s) }

// WithHedge arms hedged read-only unary requests: a second attempt
// fires when the first is still pending after the given delay.
var WithHedge = client.WithHedge

// HTTP serving options (the middleware stack of NewHTTPHandler).
type HTTPHandlerOption = service.HandlerOption

var (
	// WithMaxConcurrent bounds concurrently served requests; excess load
	// is shed with 429 + Retry-After.
	WithMaxConcurrent = service.WithMaxConcurrent
	// WithMaxStreams bounds concurrently served NDJSON streams.
	WithMaxStreams = service.WithMaxStreams
	// WithRequestTimeout bounds each non-streaming request.
	WithRequestTimeout = service.WithRequestTimeout
	// WithMaxBodyBytes caps request body size.
	WithMaxBodyBytes = service.WithMaxBodyBytes
	// WithAccessLog enables per-request access logging.
	WithAccessLog = service.WithAccessLog
	// WithShardGate marks the handler as one shard of a fleet: requests
	// for pairs outside the ownership predicate answer 503 unavailable
	// pointing the caller back at the router.
	WithShardGate = service.WithShardGate
)

// NewHTTPHandler builds the wikimatchd HTTP API over a session: the
// typed /v1/ protocol (POST JSON + NDJSON streaming, structured
// errors) inside the middleware stack (request IDs, access logging,
// per-request timeouts, load shedding, panic recovery, /v1/metrics
// counters). See cmd/wikimatchd.
func NewHTTPHandler(s *Session, opts ...HTTPHandlerOption) http.Handler {
	return service.NewHandler(s, opts...)
}

// The fleet layer: a router coordinating N wikimatchd shard replicas
// behind the same /v1 surface a single binary serves. A deterministic
// shard map assigns every canonical language pair to one replica; the
// router routes unary requests to their owner and scatter-gathers
// all-pairs batches across the fleet into responses byte-identical to a
// single binary's. See cmd/wikimatchd's -router and -shard-index modes.

// NewFleetRouter builds a router over the given shard addresses
// (host:port or full URLs), in shard-index order; its Handler serves
// /v1/.
func NewFleetRouter(addrs []string, opts ...router.Option) (*router.Router, error) {
	return router.New(addrs, opts...)
}

// Fleet router options.
var (
	// WithFleetClientOptions configures the per-shard SDK clients.
	WithFleetClientOptions = router.WithClientOptions
	// WithFleetHandlerOptions configures the router's own middleware.
	WithFleetHandlerOptions = router.WithHandlerOptions
	// WithFleetHealthInterval sets the background health-poll cadence
	// (negative disables the poller).
	WithFleetHealthInterval = router.WithHealthInterval
	// WithFleetLogger directs router logs.
	WithFleetLogger = router.WithLogger
)

// ShardOwned is shard index's ownership predicate among count replicas:
// the keep function for RestoreSessionFromFile and the gate for
// WithShardGate.
func ShardOwned(index, count int) func(LanguagePair) bool { return router.Owned(index, count) }

// ParseLanguagePair parses a "pt-en"-style pair string ("vn-en" is an
// alias for Vietnamese–English).
func ParseLanguagePair(s string) (LanguagePair, error) { return protocol.ParsePair(s) }

// DefaultBoumaConfig mirrors the conservative, precision-first behaviour
// the paper reports for the Bouma et al. aligner.
func DefaultBoumaConfig() baselines.BoumaConfig { return baselines.DefaultBoumaConfig() }

// COMAConfigs enumerates the six COMA++ configurations of Figure 7 at a
// selection threshold.
func COMAConfigs(threshold float64) []baselines.COMAConfig { return baselines.COMAConfigs(threshold) }

// RunBouma runs the Bouma et al. cross-lingual template aligner over one
// matched entity-type pair and returns the derived correspondences.
func RunBouma(c *Corpus, pair LanguagePair, typeA, typeB string, cfg baselines.BoumaConfig) Correspondences {
	return baselines.Bouma(c, pair, typeA, typeB, cfg)
}

// RunCOMA runs one COMA++-style configuration over a matched entity-type
// pair: it builds the pair's translation dictionary and similarity
// workspace, then applies the configuration's name/instance matchers. lt
// is the simulated label translator used by the "+G" configurations and
// may be nil.
func RunCOMA(c *Corpus, pair LanguagePair, typeA, typeB string, lt *dict.LabelTranslator, cfg baselines.COMAConfig) Correspondences {
	td := sim.BuildTypeData(c, pair, typeA, typeB, dict.Build(c, pair.A, pair.B))
	return baselines.COMA(td, lt, cfg)
}

// Evaluation.
type (
	// Correspondences maps source attributes to their aligned targets.
	Correspondences = eval.Correspondences
	// PRF bundles precision, recall and F-measure.
	PRF = eval.PRF
)

// MacroScores computes the unweighted variant of the paper's
// precision/recall/F (Appendix B).
func MacroScores(derived, truth Correspondences) PRF {
	return eval.Macro(derived, truth)
}

// ParseQuery parses c-query syntax (the Section 5 case study):
// `filme(título=?, receita>10000000) and ator(ocupação="político")`.
func ParseQuery(s string) (*query.Query, error) { return query.Parse(s) }

// NewQueryEngine indexes a corpus for querying in one language.
func NewQueryEngine(c *Corpus, lang wiki.Language) *query.Engine {
	return query.NewEngine(c, lang)
}

// TranslateQuery renders a query into the match result's target language
// through the derived correspondences, relaxing untranslatable
// constraints (Section 5).
func TranslateQuery(q *query.Query, res *core.Result) query.Translation {
	return query.Translate(q, res)
}

// CaseStudy runs the Table 4 workload monolingually and translated, and
// returns the four cumulative-gain curves of Figure 4.
func CaseStudy(c *Corpus, truth *synth.GroundTruth, resPt, resVn *core.Result, k int) ([]query.CGSeries, error) {
	return query.RunCaseStudy(c, truth, resPt, resVn, k)
}

// NewExperiments generates a corpus and prepares the per-type evaluation
// units for every table and figure of the paper.
func NewExperiments(cfg synth.Config) (*experiments.Setup, error) {
	return experiments.NewSetup(cfg)
}
