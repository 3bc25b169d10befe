// TPP problem instance: released graph + target set + motif.

#ifndef TPP_CORE_PROBLEM_H_
#define TPP_CORE_PROBLEM_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "motif/motif.h"

namespace tpp::core {

/// A fully specified TPP instance. `released` is the phase-1 graph: the
/// original graph with every target link already deleted. All algorithms
/// operate on copies of `released`; the original graph is only needed again
/// for utility-loss analysis.
struct TppInstance {
  graph::Graph released;             ///< original minus target links
  std::vector<graph::Edge> targets;  ///< the hidden links T
  motif::MotifKind motif = motif::MotifKind::kTriangle;
};

/// Builds an instance from the original graph: validates that every target
/// is a distinct existing edge, then removes them (phase 1).
Result<TppInstance> MakeInstance(const graph::Graph& original,
                                 std::vector<graph::Edge> targets,
                                 motif::MotifKind motif);

/// Edge-rank index of one graph: the map from an edge's rank in
/// g.Edges() order ((u, v) with u < v, ascending) to the edge itself,
/// which is what target sampling draws. It holds the prefix array of upper
/// degrees, P[u] = #{edges (a, b) : a < b, a < u}, with NumNodes() + 1
/// entries (8 bytes per node). Rank i belongs to the node u with
/// P[u] <= i < P[u+1] and is u's (i - P[u])-th upper neighbor.
///
/// Costs: construction reads every adjacency list once, O(N log d);
/// Sample is O(k log N) for k draws; ApplyDelta is one pass over P from
/// the smallest lower endpoint the delta touches, O(N), with no adjacency
/// read. A long-lived holder of a graph (PlanService keeps one beside its
/// base-graph fingerprint) builds it once and patches it on every edit,
/// so a sampled request no longer walks the whole graph.
class EdgeRankIndex {
 public:
  explicit EdgeRankIndex(const graph::Graph& g);

  /// Samples `count` distinct edges of `g`, the graph the index was built
  /// on (or patched to), with the draws and RNG stream of
  /// rng.SampleK(g.Edges(), count). Errors if `g` has fewer than `count`
  /// edges. A stale index (P.back() != g.NumEdges(), or a node count that
  /// differs) is a programming error and aborts.
  Result<std::vector<graph::Edge>> Sample(const graph::Graph& g,
                                          size_t count, Rng& rng) const;

  /// Patches the index for a normalized delta the graph has just
  /// accepted (graph::Graph::ApplyDelta returned OK): every edge (a, b),
  /// a < b, shifts P[a+1..N] by +1 if inserted and -1 if removed.
  void ApplyDelta(const graph::GraphDelta& delta);

  /// P, NumNodes() + 1 entries.
  std::span<const size_t> prefix() const { return prefix_; }

  friend bool operator==(const EdgeRankIndex&,
                         const EdgeRankIndex&) = default;

 private:
  std::vector<size_t> prefix_;
};

/// Samples `count` distinct target links uniformly from the existing edges,
/// as in the paper's evaluation ("targets are randomly sampled from the
/// existing links"). Errors if the graph has fewer than `count` edges.
/// One-shot form: builds an EdgeRankIndex of `g` (O(N log d)) and samples
/// from it; callers that sample one graph repeatedly hold the index.
Result<std::vector<graph::Edge>> SampleTargets(const graph::Graph& g,
                                               size_t count, Rng& rng);

}  // namespace tpp::core

#endif  // TPP_CORE_PROBLEM_H_
