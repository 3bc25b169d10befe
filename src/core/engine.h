// Engine: the similarity oracle the greedy algorithms run against.
//
// Two implementations share this contract:
//   * NaiveEngine  (naive_engine.h)   — recounts motifs on the live graph
//     for every gain query, reproducing the paper's cost model;
//   * IndexedEngine (indexed_engine.h) — answers from the precomputed
//     CSR incidence index (our scalable engine): Gain is an O(1) cached
//     alive-count lookup, GainVector scans the edge's short per-target
//     count segment, and DeleteEdge pays the index-maintenance cost once
//     per killed instance (see motif/incidence_index.h for the layout and
//     the alive-count invariant).
// Both must return identical values for every query; this is enforced by
// differential tests.
//
// Deletion contract: DeleteEdge on an edge that is absent from the current
// graph — never present, or already deleted — returns 0 and changes
// nothing. It must not CHECK-fail; greedy drivers and baselines rely on
// deletions being safely re-issuable.

#ifndef TPP_CORE_ENGINE_H_
#define TPP_CORE_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine_scope.h"
#include "core/gain_table.h"
#include "graph/graph.h"
#include "motif/incidence_index.h"

namespace tpp::core {

/// Mutable similarity oracle for one TPP instance. Deletions are
/// irreversible; create a fresh engine to restart an experiment.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Number of targets |T|.
  virtual size_t NumTargets() const = 0;

  /// Current per-target similarity s(P, t).
  virtual size_t SimilarityOf(size_t t) = 0;

  /// Current total similarity s(P, T).
  virtual size_t TotalSimilarity() = 0;

  /// Dissimilarity gain of deleting `e` now: s(P,T) - s(P + e, T).
  /// Does not commit the deletion.
  virtual size_t Gain(graph::EdgeKey e) = 0;

  /// Batch form of Gain: out[i] == Gain(edges[i]), evaluated against the
  /// current graph state (no deletion is committed between elements).
  /// Counts one gain evaluation per queried edge. The base implementation
  /// is a serial loop; IndexedEngine overrides it with a partitioned
  /// evaluation on the shared process pool (common/thread_pool.h) so
  /// first-round full sweeps saturate cores (thread budget: --threads /
  /// tpp::GlobalThreadCount()).
  virtual std::vector<size_t> BatchGain(std::span<const graph::EdgeKey> edges) {
    std::vector<size_t> out;
    out.reserve(edges.size());
    for (graph::EdgeKey e : edges) out.push_back(Gain(e));
    return out;
  }

  /// Gain split into the part benefiting target `t` (own) and everyone
  /// else (cross). own + cross == Gain(e).
  virtual motif::IncidenceIndex::SplitGain GainFor(graph::EdgeKey e,
                                                   size_t t) = 0;

  /// Per-target gains of deleting `e`: out[t] = s(P,t) - s(P + e, t).
  /// One evaluation yields the gain split for EVERY target, which is what
  /// keeps CT-Greedy at the same asymptotic cost as SGB-Greedy (the
  /// paper's O(k n m (log N)^2) analysis assumes this).
  virtual std::vector<size_t> GainVector(graph::EdgeKey e) = 0;

  /// Allocation-free form of GainVector: writes the per-target gains into
  /// `out` (size NumTargets()). Counts one gain evaluation, exactly like
  /// GainVector — the hoisted CT/WT cold loops reuse one buffer across the
  /// whole run through this. The base implementation copies out of
  /// GainVector; engines override it to fill in place.
  virtual void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) {
    std::vector<size_t> diffs = GainVector(e);
    std::copy(diffs.begin(), diffs.end(), out.begin());
  }

  /// Batch form of GainVector: fills `out` with edges.size() rows of
  /// NumTargets() gains, row-major (resized to edges.size()*NumTargets()).
  /// Evaluated against the current graph state; counts one gain evaluation
  /// per queried edge. The base implementation is a serial loop;
  /// IndexedEngine overrides it with a pure-read fan-out on the shared
  /// pool (it flushes deferred index maintenance once, then every row fill
  /// is a read) — the wide-dirty-set path of incremental rounds.
  virtual void BatchGainVector(std::span<const graph::EdgeKey> edges,
                               std::vector<uint32_t>* out);

  /// Commits the deletion of `e` from the released graph. Returns the
  /// number of target subgraphs broken (== the gain it realized); returns
  /// 0 without failing when `e` is absent or already deleted.
  virtual size_t DeleteEdge(graph::EdgeKey e) = 0;

  /// Candidate protector edges under `scope`, sorted ascending by key for
  /// deterministic tie-breaking. Already-deleted edges never appear.
  virtual std::vector<graph::EdgeKey> Candidates(CandidateScope scope) = 0;

  /// Fill form of Candidates: reuses `out`'s capacity across rounds. Same
  /// contents and accounting (none) as Candidates.
  virtual void CandidatesInto(CandidateScope scope,
                              std::vector<graph::EdgeKey>* out) {
    *out = Candidates(scope);
  }

  /// The whole query side of one eager greedy round: fills `edges` with
  /// Candidates(scope) and `gains` with the aligned Gain of each. Counts
  /// one gain evaluation per returned edge, exactly like the historical
  /// Candidates()+Gain() loop. Base implementation composes Candidates and
  /// BatchGain; IndexedEngine answers the restricted scope with a single
  /// hash-free scan of its cached alive-count array.
  virtual void CandidateGains(CandidateScope scope,
                              std::vector<graph::EdgeKey>* edges,
                              std::vector<size_t>* gains) {
    *edges = Candidates(scope);
    *gains = BatchGain(*edges);
  }

  /// The whole query side of one INCREMENTAL greedy round. Returns a view
  /// whose totals (and per-target rows, when `per_target` is set) reflect
  /// the current graph state, re-evaluating only candidates dirtied by the
  /// deletions committed since the previous BeginRound of the same session
  /// (same scope and per_target). The view's `dirty` lists exactly those
  /// row indices, so selection layers can patch their own cached
  /// aggregates instead of rescanning per-target data.
  ///
  /// Accounting: counts `num_candidates` gain evaluations — one per LIVE
  /// candidate, identical to the cold Candidates()+GainVector()/Gain()
  /// sweep it replaces, regardless of how few rows were physically
  /// re-evaluated. The paper's work metric therefore reports the same
  /// numbers on both paths; only wall time changes.
  ///
  /// The base implementation is the trivial always-dirty fallback
  /// (NaiveEngine uses it as-is): it rebuilds the candidate universe and
  /// re-evaluates every gain each round through the counting query APIs,
  /// returning all_dirty views — bit-identical results, cold-sweep cost.
  /// IndexedEngine overrides it with dirty-set maintenance on its
  /// persistent GainTable.
  virtual const RoundGains& BeginRound(CandidateScope scope, bool per_target);

  /// The current (phase-1 + committed deletions) graph; used by the random
  /// baselines and by utility analysis of the final release. The
  /// reference follows later DeleteEdge calls. IndexedEngine builds this
  /// graph lazily on the first call, so the call is not safe concurrently
  /// with any other call on the same engine.
  virtual const graph::Graph& CurrentGraph() const = 0;

  /// Number of gain evaluations performed so far; the work metric reported
  /// by the running-time experiments. Each Gain/GainFor/GainVector call
  /// counts 1, the batch paths count one per queried edge (BatchGain,
  /// BatchGainVector) or per returned edge (CandidateGains), and
  /// BeginRound counts one per live candidate, so every greedy round still
  /// reports |candidates| evaluations exactly as the historical serial
  /// loops did — the paper's work metric stays comparable across PRs.
  virtual uint64_t GainEvaluations() const = 0;

 protected:
  /// Storage behind the base-class BeginRound fallback; engines that
  /// override BeginRound carry their own table instead.
  GainTable fallback_table_;
};

}  // namespace tpp::core

#endif  // TPP_CORE_ENGINE_H_
