// IndexedEngine: CSR-incidence-index-backed similarity oracle.

#ifndef TPP_CORE_INDEXED_ENGINE_H_
#define TPP_CORE_INDEXED_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/problem.h"
#include "motif/incidence_index.h"

namespace tpp::core {

/// Engine that enumerates all target subgraphs once at construction and
/// then answers every query from the CSR IncidenceIndex: Gain is an O(1)
/// cached-count lookup, GainFor/GainVector scan one short per-target count
/// segment, and DeleteEdge does work proportional to the instances it
/// kills. Returns exactly the same values as NaiveEngine
/// (differential-tested) at a fraction of the cost; this is the engine the
/// benchmarks use wherever the paper's own timing is not the object of
/// study.
class IndexedEngine : public Engine {
 public:
  /// Builds the incidence index (parallel over the shared pool; optional
  /// per-stage timings; bit-identical at any thread count) and takes
  /// ownership of `instance`. Fails if a target is still present in the
  /// released graph.
  static Result<IndexedEngine> Create(
      TppInstance instance,
      const motif::IncidenceIndex::BuildOptions& build_options = {},
      motif::IncidenceIndex::BuildStats* build_stats = nullptr);

  /// Wraps an already-built index around `instance` — the warm-start
  /// path: the index came from a snapshot file (motif/index_snapshot.h)
  /// instead of a cold Build. Fails, leaving `instance` untouched for a
  /// cold Create, when the index's target count does not match.
  static Result<IndexedEngine> Adopt(TppInstance&& instance,
                                     motif::IncidenceIndex index);

  /// The instance (released graph without this engine's deletions,
  /// targets, motif): one object shared by a prototype and its clones.
  const TppInstance& instance() const { return *instance_; }

  size_t NumTargets() const override { return index_.NumTargets(); }
  size_t SimilarityOf(size_t t) override { return index_.AliveForTarget(t); }
  size_t TotalSimilarity() override { return index_.TotalAlive(); }
  size_t Gain(graph::EdgeKey e) override {
    ++gain_evals_;
    return index_.Gain(e);
  }
  /// Partitioned parallel batch evaluation on the shared process pool
  /// (common/thread_pool.h; budget: set_threads(), default
  /// tpp::GlobalThreadCount(), i.e. the --threads flag). Safe because gain
  /// queries are pure reads of the index. Falls back to a serial loop for
  /// small batches or a thread budget of 1.
  std::vector<size_t> BatchGain(std::span<const graph::EdgeKey> edges)
      override;
  motif::IncidenceIndex::SplitGain GainFor(graph::EdgeKey e,
                                           size_t t) override {
    ++gain_evals_;
    return index_.GainFor(e, t);
  }
  std::vector<size_t> GainVector(graph::EdgeKey e) override;
  /// In-place GainVector: zero-fill plus one pass over the edge's CSR-2
  /// segment, no allocation. Counts one evaluation.
  void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) override;
  /// Parallel pure-read row fill on the shared pool: deferred index
  /// maintenance is flushed once up front, then every row is a read of
  /// the edge's CSR-2 segment into a disjoint output slice. Falls back to
  /// a serial loop for small batches (same heuristic as BatchGain).
  void BatchGainVector(std::span<const graph::EdgeKey> edges,
                       std::vector<uint32_t>* out) override;
  size_t DeleteEdge(graph::EdgeKey e) override;
  std::vector<graph::EdgeKey> Candidates(CandidateScope scope) override;
  void CandidatesInto(CandidateScope scope,
                      std::vector<graph::EdgeKey>* out) override;
  /// Restricted scope: one hash-free scan of the index's alive-count
  /// array produces the candidate set and every gain simultaneously (see
  /// IncidenceIndex::AliveCandidateGains). Full-edge scope falls back to
  /// the Candidates+BatchGain composition.
  void CandidateGains(CandidateScope scope,
                      std::vector<graph::EdgeKey>* edges,
                      std::vector<size_t>* gains) override;
  /// Incremental rounds on the persistent gain table. The candidate
  /// universe is static for a whole session — the interned edge set
  /// (restricted scope, where totals alias the index's eagerly-maintained
  /// alive counts and need no per-round work at all) or the graph's edge
  /// set at session start (full scope) — and per-target rows are patched
  /// only for the dirty ids the round's deferred-count flush reports,
  /// through the parallel row fill when the dirty set is wide. Charges
  /// one evaluation per live candidate (see Engine::BeginRound).
  const RoundGains& BeginRound(CandidateScope scope,
                               bool per_target) override;
  /// The released graph minus this engine's committed deletions: the
  /// engine's own copy, built from the shared released graph on the first
  /// call and kept in step with every later DeleteEdge, so a reference
  /// follows later deletions as on NaiveEngine. Valid until the next
  /// ApplyEdit. The first call writes the copy: not safe to call
  /// concurrently with any other call on the same engine.
  const graph::Graph& CurrentGraph() const override;
  uint64_t GainEvaluations() const override { return gain_evals_; }

  /// Cheap private copy for shared-instance batching: shares the
  /// immutable instance (a pointer copy, no adjacency list is copied or
  /// freed per request), copies the committed-deletion overlay and the
  /// index's mutable alive-count arrays, so the clone can commit
  /// deletions without touching this engine or its siblings. Cloning a
  /// freshly-built engine is indistinguishable from building a second
  /// engine from the same instance — same graph, same index contents,
  /// work counter at zero — at the cost of a flat-array copy instead of a
  /// full motif re-enumeration. The thread budget is inherited; any
  /// incremental round session is RESET on the copy (the clone's first
  /// BeginRound is a full evaluation), so prototype engines shared by the
  /// batch pipeline never leak round state into per-request clones.
  IndexedEngine Clone() const;

  /// Applies a committed base-graph edit (graph::Graph::EditSession
  /// delta) to this engine IN PLACE: advances the instance's released
  /// graph and repairs the incidence index around the delta neighborhood
  /// (motif::IncidenceIndex::ApplyGraphDelta) instead of re-enumerating —
  /// the result answers every query exactly as an engine freshly built
  /// from the edited graph would (plans come out byte-identical;
  /// bench/graph_mutation.cc checks this every rep). When a live clone
  /// still shares the instance, it is copied first (O(graph)) so the
  /// clone keeps the pre-edit one; the repository edits its prototypes
  /// between batches, when no clone is alive, so its edits never copy.
  /// Requires a FRESH engine — no deletions committed yet (prototype
  /// engines between batches, not per-request clones mid-solve;
  /// FailedPrecondition otherwise); errors leave both instance and index
  /// unchanged. Any incremental round session is reset, exactly as on
  /// Clone. The delta must not touch a target link: edits to target links
  /// change the problem itself, so the owning service rebuilds those
  /// groups instead (service/instance_repository.h).
  /// `cancel` (optional) is polled before the repair mutates anything;
  /// once the repair starts it runs to completion.
  Status ApplyEdit(const graph::GraphDelta& delta,
                   const CancellationToken* cancel = nullptr);

  /// Overrides the worker-thread budget for BatchGain on this engine and
  /// disables the batch-size heuristic (exactly this many workers, capped
  /// by the batch length); 0 (the default) defers to
  /// tpp::GlobalThreadCount(), which only parallelizes batches large
  /// enough to amortize thread spawns.
  void set_threads(int threads) { threads_ = threads; }

  /// Access to the underlying index (for reporting and differential
  /// tests). Non-const because count-level reads flush the index's
  /// deferred maintenance; the const overload serves flush-free
  /// inspection (BitIdentical, instances()).
  motif::IncidenceIndex& index() { return index_; }
  const motif::IncidenceIndex& index() const { return index_; }

 private:
  IndexedEngine(TppInstance instance, motif::IncidenceIndex index)
      : instance_(std::make_shared<TppInstance>(std::move(instance))),
        index_(std::move(index)) {}

  // The current graph's edge keys, ascending: the released graph's minus
  // the deletion overlay.
  void LiveEdgeKeysInto(std::vector<graph::EdgeKey>* out) const;

  // Shared worker-sizing and dispatch of the row-granular parallel jobs
  // (FillGainRows, BeginRound's dirty-row patch): honors set_threads()
  // exactly, otherwise parallelizes only jobs big enough to amortize the
  // fan-out (kMinRowsPerThread).
  void ParallelRowJob(size_t n,
                      const std::function<void(size_t, size_t)>& body);

  // Parallel CSR-2 row fill behind BatchGainVector and the dirty-row
  // refresh of BeginRound: ids[i] is written to out[i * stride] (kNoEdge
  // ids produce zero rows). Flushes deferred maintenance, then fans out.
  void FillGainRows(std::span<const uint32_t> ids, size_t stride,
                    uint32_t* out);

  // (Re)starts an incremental round session for (scope, per_target).
  void InitRoundSession(CandidateScope scope, bool per_target);

  // Shared by the prototype and all its clones and never mutated while
  // shared (ApplyEdit copies on write). The current graph is its released
  // graph minus deleted_, this engine's committed deletions (sorted
  // ascending; a budget's worth of keys, not a graph).
  std::shared_ptr<TppInstance> instance_;
  std::vector<graph::EdgeKey> deleted_;
  // CurrentGraph()'s defended graph, built on its first call and kept in
  // step by DeleteEdge afterwards; dropped by Clone and ApplyEdit.
  mutable std::optional<graph::Graph> current_;
  motif::IncidenceIndex index_;
  uint64_t gain_evals_ = 0;
  int threads_ = 0;

  // Incremental round session state (see BeginRound). table_.edges /
  // totals stay empty under the restricted scope: the view aliases the
  // index's interned key and alive-count arrays directly.
  GainTable table_;
  std::vector<uint32_t> session_dirty_;  // flush-emitted ids, per round
  std::vector<uint32_t> row_ids_;    // full scope: row -> interned id
  std::vector<uint32_t> id_to_row_;  // full scope: interned id -> row
  // Index count-flush epoch as of this session's last BeginRound; a
  // mismatch means a non-dirty flush intervened (its dirty set is lost)
  // and the session restarts. See BeginRound.
  uint64_t session_flush_epoch_ = 0;
};

}  // namespace tpp::core

#endif  // TPP_CORE_INDEXED_ENGINE_H_
