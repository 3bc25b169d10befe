// PlanService: one loaded base graph serving batches of TPP protection
// requests through a staged pipeline.
//
// The deployment story of target privacy preserving is a stream of
// designated users ("protect these links before the next release") hitting
// one released network, and nightly batches repeat much of the same work.
// The service loads the base graph once; each PlanRequest names its
// targets (explicitly or by sample count), a motif, and a SolverSpec, and
// RunBatch executes the requests through an explicit pipeline:
//
//   canonicalize  — derive each request's content key (base-graph
//                   fingerprint + request payload; plan_cache.h)
//   cache-probe   — serve repeats of earlier batches from the optional
//                   PlanCache
//   dedup         — requests with identical keys inside the batch solve
//                   once and share the response
//   group-by-instance — requests with the same (targets, motif) share one
//                   TppInstance + IncidenceIndex build
//                   (instance_repository.h)
//   build-once / solve / serialize — build each group's prototype engine
//                   once, hand every request a private IndexedEngine
//                   clone, run the spec'd solver, serialize the plan
//   cache-fill    — insert fresh responses into the cache
//
// Every stage is a pure optimization: responses are bit-identical to a
// sequential RunOne loop at any worker count, cache state, or sharing
// group (regression-tested in tests/plan_pipeline_test.cc).
//
// Determinism: every request derives its own RNG stream purely from its
// seed (Rng(SplitMix64(seed)), see common/rng.h), so responses are
// bit-identical whether the batch runs on 1 thread or 8, in any order,
// and a batch of one request equals a standalone `tpp protect` run with
// the same parameters. Two requests with equal seeds produce identical
// plans; distinct seeds produce independent streams even when adjacent.
//
// Request-file format (docs/SERVICE.md): one request per line of
// whitespace-separated key=value tokens, e.g.
//
//   # tpp batch request file v1
//   name=r0 algorithm=sgb motif=Triangle sample=20 seed=1 budget=10
//   name=r1 algorithm=ct-tbd links=3-14;15-92 budget=6 scope=all

#ifndef TPP_SERVICE_PLAN_SERVICE_H_
#define TPP_SERVICE_PLAN_SERVICE_H_

#include <atomic>
#include <functional>
#include <istream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "core/problem.h"
#include "core/report.h"
#include "core/solver.h"
#include "graph/graph.h"
#include "motif/motif.h"

namespace tpp::service {

class PlanCache;            // plan_cache.h
class InstanceRepository;   // instance_repository.h

namespace store {
class WarmStore;  // store/warm_store.h
}  // namespace store

/// One unit of work: protect one target set of the base graph.
struct PlanRequest {
  /// Request id, used in reports and plan file names. Parsed files default
  /// it to "r<line-index>". Excluded from the cache key: two requests that
  /// differ only in name produce the same response payload.
  std::string name;
  /// Explicit target links. When empty, `sample` links are drawn
  /// uniformly from the base graph's edges instead.
  std::vector<graph::Edge> targets;
  size_t sample = 10;  ///< number of targets to sample (targets empty)
  motif::MotifKind motif = motif::MotifKind::kTriangle;
  core::SolverSpec spec;  ///< algorithm, scope, lazy flag, budget
  uint64_t seed = 1;      ///< per-request RNG stream seed
  /// Copy the final released graph into PlanResponse::released. Off by
  /// default so large batches do not hold O(batch x graph) memory; `tpp
  /// protect` and the request-file key `released=1` turn it on.
  bool want_released = false;
  /// Wall-clock budget for this request in milliseconds; <= 0 means
  /// unlimited. The clock starts when the pipeline (or RunOne) picks the
  /// request up; past the deadline the solver stops at its next round
  /// boundary and the response carries kDeadlineExceeded — the rest of
  /// the batch is unaffected. Request-file key `deadline_ms=`, CLI flag
  /// --deadline-ms. Excluded from the cache key: a deadline changes
  /// whether a run finishes, never what a finished run produces.
  int64_t deadline_ms = 0;
  /// Optional external cancel signal (not owned; must outlive the run).
  /// Chained under the per-request deadline token, so either source
  /// stops the solve. Excluded from the cache key.
  const CancellationToken* cancel = nullptr;
};

/// Outcome of one request. Failures are isolated: a bad request yields a
/// non-OK status in its slot and the rest of the batch proceeds.
struct PlanResponse {
  Status status = Status::Ok();
  std::vector<graph::Edge> targets;  ///< realized targets (sampled or given)
  core::ProtectionResult result;
  std::string plan_text;      ///< SerializeDeletionPlan output
  /// Base minus targets minus protectors; only populated when the request
  /// set want_released (empty Graph(0) otherwise).
  graph::Graph released{0};
  double seconds = 0;         ///< wall time of this request
  bool from_cache = false;    ///< served by a PlanCache hit
};

/// Counters one pipeline run fills when BatchOptions::stats is set: only
/// what the pipeline's own stages decide. Every request is accounted
/// exactly once among cache_hits, dedup_shared, and solved. Store and
/// snapshot counters have one owner each: WarmStore::stats() and the
/// InstanceRepository's cumulative Num* counters.
struct BatchStats {
  size_t requests = 0;        ///< batch size
  size_t cache_hits = 0;      ///< served straight from the PlanCache
  size_t dedup_shared = 0;    ///< shared an in-batch representative's work
  size_t solved = 0;          ///< executed by the solve stage (incl. failures)
  size_t instance_groups = 0; ///< distinct (targets, motif) groups solved
  size_t instance_builds = 0; ///< TppInstance + index builds performed
  /// Requests whose response is kDeadlineExceeded (their own deadline_ms
  /// or the batch deadline fired). Dedup followers of an expired
  /// representative count too — they carry the same response.
  size_t deadline_exceeded = 0;
};

/// Knobs of one RunBatch pipeline execution.
struct BatchOptions {
  /// Concurrent requests at a time; <= 0 uses GlobalThreadCount().
  int max_workers = 0;
  /// Optional response memo shared across batches (and across services:
  /// keys embed the base-graph fingerprint). nullptr disables the
  /// cache-probe and cache-fill stages.
  PlanCache* cache = nullptr;
  /// Optional disk-backed warm-start store (store/warm_store.h). The
  /// build-once stage probes it for IncidenceIndex snapshots before
  /// building (writing cold builds back), making the expensive index
  /// construction survive process restarts. Plan-level persistence is the
  /// cache's concern: attach the same store to the PlanCache with
  /// set_backing_store. Responses stay bit-identical with or without a
  /// store (regression-tested in tests/store_warmstart_test.cc).
  store::WarmStore* store = nullptr;
  /// Optional externally-owned instance repository reused ACROSS batches
  /// (nullptr: the pipeline builds a fresh per-batch repository, the
  /// historical behavior). It must have been constructed over this
  /// service's base graph and, between batches, kept in step with every
  /// PlanService::ApplyEdit (which repairs its built groups in place).
  /// With an external repository a follow-up batch naming the same
  /// (targets, motif) groups re-clones the surviving prototype engines
  /// instead of re-enumerating — the stats report builds performed BY
  /// THIS RUN, so a fully warm batch shows instance_builds == 0. The
  /// pipeline (re)applies its build-thread budget and store attachment on
  /// every run.
  InstanceRepository* repository = nullptr;
  /// Optional out-param for pipeline counters.
  BatchStats* stats = nullptr;
  /// Wall-clock budget for the WHOLE batch in milliseconds; <= 0 means
  /// unlimited. The clock starts at pipeline entry; every request's
  /// effective deadline is the earlier of its own deadline_ms and this.
  /// Requests already solved keep their responses — only work past the
  /// deadline returns kDeadlineExceeded.
  int64_t batch_deadline_ms = 0;
};

/// Outcome summary of one committed base-graph edit applied through
/// PlanService::ApplyEdit.
struct EditSummary {
  uint64_t old_fingerprint = 0;
  uint64_t new_fingerprint = 0;
  size_t inserted = 0;           ///< net edges inserted
  size_t removed = 0;            ///< net edges removed
  size_t cache_rekeyed = 0;      ///< cache entries surviving under the new fp
  size_t cache_invalidated = 0;  ///< cache entries dropped by the edit
  size_t groups_repaired = 0;    ///< repository groups repaired in place
  size_t groups_reset = 0;       ///< repository groups reset for cold rebuild
};

/// Streaming delivery callback: invoked once per request, in input order,
/// on the calling thread. The calling thread solves units itself and,
/// before each of its own units, delivers the completed prefix of the
/// batch, so long batches can be tailed without waiting for the slowest
/// request; with max_workers == 1 that is solve-one-deliver-one. Once the
/// caller runs out of units, the prefix still held by helper workers is
/// delivered together when the last of them finishes.
using ResponseSink =
    std::function<void(size_t index, const PlanResponse& response)>;

/// Derives the request's RNG stream from its seed; the single derivation
/// rule shared by the service and the CLI so batch and standalone runs
/// agree bit-for-bit.
Rng RequestRng(uint64_t seed);

/// Serves protection requests against one base graph. Thread-compatible:
/// RunBatch may be called repeatedly (sequentially); each call fans its
/// requests out over the shared pool.
class PlanService {
 public:
  explicit PlanService(graph::Graph base);

  const graph::Graph& base() const { return base_; }

  /// graph::Fingerprint of the base, computed once at construction; the
  /// content-address prefix of every cache key this service produces.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Executes one request cold: sample/validate targets, build the
  /// TppInstance and IndexedEngine, run the spec'd solver, serialize the
  /// plan. No cache, no sharing — this is the reference semantics every
  /// pipeline configuration must reproduce bit-for-bit.
  PlanResponse RunOne(const PlanRequest& request) const;

  /// Executes all requests through the pipeline (default BatchOptions
  /// with `max_workers`) and returns responses in input order.
  std::vector<PlanResponse> RunBatch(std::span<const PlanRequest> requests,
                                     int max_workers = 0) const;

  /// Pipeline execution with explicit options; responses in input order.
  std::vector<PlanResponse> RunBatch(std::span<const PlanRequest> requests,
                                     const BatchOptions& options) const;

  /// Streaming pipeline execution: delivers each response to `sink` (see
  /// ResponseSink for the ordering and granularity contract) instead of
  /// collecting them.
  void RunBatch(std::span<const PlanRequest> requests,
                const BatchOptions& options, const ResponseSink& sink) const;

  /// Commits a normalized base-graph edit (the GraphDelta contract —
  /// typically a graph::Graph::EditSession::Commit result replayed here)
  /// to the LIVE service: applies the delta to the base graph, advances
  /// the fingerprint in O(|delta|) (graph::UpdateFingerprint — no
  /// re-walk), patches the sampler's core::EdgeRankIndex in one pass over
  /// its prefix array, and keeps the serving state consistent:
  ///   * `cache` (if given): entries under the old fingerprint whose
  ///     response provably cannot change — deterministic algorithm,
  ///     explicit targets, restricted scope, every target endpoint
  ///     outside the edit's distance-1 neighborhood on the pre-edit graph
  ///     — are rekeyed to the new fingerprint and survive; the rest are
  ///     dropped (PlanCache::InvalidateForEdit).
  ///   * `repository` (if given): built instance groups are repaired in
  ///     place around the delta neighborhood instead of re-enumerated
  ///     (InstanceRepository::ApplyEdit); only groups whose target links
  ///     the edit touches reset to a cold build.
  /// On a delta that fails validation (an absent removal, a present
  /// insertion) nothing changes and the error is returned. Must not run
  /// concurrently with RunBatch/RunOne — edits sit between batches. The
  /// restriction is ENFORCED, not conventional: an ApplyEdit that
  /// overlaps an in-flight RunBatch/RunOne returns kFailedPrecondition
  /// and changes nothing, instead of mutating the base graph under a
  /// running solve. Callers that interleave edits with serving (the plan
  /// server's epoch barrier, the CLI's edit sessions) retry or sequence
  /// at their own drain point.
  Result<EditSummary> ApplyEdit(const graph::GraphDelta& delta,
                                PlanCache* cache = nullptr,
                                InstanceRepository* repository = nullptr);

 private:
  std::vector<PlanResponse> RunPipeline(std::span<const PlanRequest> requests,
                                        const BatchOptions& options,
                                        const ResponseSink* sink) const;

  graph::Graph base_;
  uint64_t fingerprint_ = 0;
  // Resolves sampled target ranks in O(k log N); patched by ApplyEdit.
  core::EdgeRankIndex edge_ranks_;
  // Live RunBatch/RunOne executions; ApplyEdit refuses while nonzero.
  mutable std::atomic<int> active_runs_{0};
};

/// Parses an explicit link list "u-v;u-v;..." (the `links=` value of the
/// request-file format and the CLI's --links flag). Rejects malformed
/// pairs, negative or > 32-bit node ids, self-loops, and duplicate links
/// (including reversed duplicates like "1-2;2-1").
Result<std::vector<graph::Edge>> ParseLinkList(std::string_view value);

/// Parses one request line (the format above, already stripped of
/// comments and surrounding whitespace). `line` is the 1-based line
/// number used in error messages; `index` names the request "r<index>"
/// when the line has no name= token. The building block of
/// ParsePlanScript, exposed for feeds that arrive a line at a time.
Result<PlanRequest> ParsePlanRequestLine(std::string_view text, size_t line,
                                         size_t index);

/// True iff a stripped script line is an `edit` directive (the word
/// `edit` alone or followed by whitespace) rather than a request line.
bool IsEditDirective(std::string_view text);

/// Parses one `edit` directive line of a batch script:
///
///   edit insert=u-v;u-v remove=u-v
///
/// At least one of insert=/remove= must be present; both take the
/// ParseLinkList syntax. The result is normalized to the GraphDelta
/// contract (canonical u<v endpoints, each list sorted by key and
/// duplicate-free, lists disjoint); violations are parse errors, so a
/// parsed delta is always directly applicable.
Result<graph::GraphDelta> ParseEditLine(std::string_view text, size_t line);

/// One step of a batch script: the requests to run, then (optionally) the
/// edit to commit before the next step.
struct PlanScriptStep {
  std::vector<PlanRequest> requests;
  std::optional<graph::GraphDelta> edit;
};

/// Parses a batch SCRIPT line by line (see docs/SERVICE.md): the plain
/// request-file format plus `edit` directive lines (see ParseEditLine)
/// that split the file into sequential steps. Each line is read,
/// validated, and appended before the next is pulled from the stream, and
/// errors name the offending line. Each step's requests run as one
/// pipeline batch against the then-current base graph; its edit (if any)
/// commits through PlanService::ApplyEdit before the next step runs. A
/// file with no edit lines parses as a single step — the format is a
/// strict superset of the request-file format, so this is the only
/// reader of both. Request indices ("r<N>" default names) number across
/// the whole script.
Result<std::vector<PlanScriptStep>> ParsePlanScript(std::istream& stream);

/// Parses an in-memory batch script.
Result<std::vector<PlanScriptStep>> ParsePlanScript(const std::string& text);

/// Loads and parses a batch script from disk (line by line).
Result<std::vector<PlanScriptStep>> LoadPlanScript(const std::string& path);

}  // namespace tpp::service

#endif  // TPP_SERVICE_PLAN_SERVICE_H_
