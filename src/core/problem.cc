#include "core/problem.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_set>

#include "common/strings.h"

namespace tpp::core {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;

Result<TppInstance> MakeInstance(const Graph& original,
                                 std::vector<Edge> targets,
                                 motif::MotifKind motif) {
  TppInstance inst;
  inst.released = original;
  inst.motif = motif;
  std::unordered_set<EdgeKey> seen;
  seen.reserve(targets.size() * 2);
  for (const Edge& t : targets) {
    if (!seen.insert(t.Key()).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate target (%u,%u)", t.u, t.v));
    }
    Status s = inst.released.RemoveEdge(t.u, t.v);
    if (!s.ok()) {
      return Status::InvalidArgument(
          StrFormat("target (%u,%u) is not an edge of the graph", t.u, t.v));
    }
  }
  inst.targets = std::move(targets);
  return inst;
}

Result<std::vector<Edge>> SampleTargets(const Graph& g, size_t count,
                                        Rng& rng) {
  if (count > g.NumEdges()) {
    return Status::InvalidArgument(
        StrFormat("cannot sample %zu targets from %zu edges", count,
                  g.NumEdges()));
  }
  // The same index draw as rng.SampleK(g.Edges(), count), resolved
  // without materializing the edge list: Edges() orders edges by (u, v)
  // with u < v, so index i is the i-th upper neighbor in one ascending
  // walk over the nodes. Draws are visited in index order and written
  // back at their draw position.
  std::vector<size_t> draws =
      rng.SampleWithoutReplacement(g.NumEdges(), count);
  std::vector<size_t> by_index(draws.size());
  std::iota(by_index.begin(), by_index.end(), size_t{0});
  std::sort(by_index.begin(), by_index.end(),
            [&](size_t a, size_t b) { return draws[a] < draws[b]; });
  std::vector<Edge> out(draws.size());
  size_t next = 0;
  size_t first = 0;  // index of u's first upper neighbor
  for (graph::NodeId u = 0; u < g.NumNodes() && next < by_index.size(); ++u) {
    std::span<const graph::NodeId> nbrs = g.Neighbors(u);
    auto upper = std::upper_bound(nbrs.begin(), nbrs.end(), u);
    const size_t num_upper = nbrs.end() - upper;
    for (; next < by_index.size() &&
           draws[by_index[next]] < first + num_upper;
         ++next) {
      out[by_index[next]] = Edge(u, upper[draws[by_index[next]] - first]);
    }
    first += num_upper;
  }
  return out;
}

}  // namespace tpp::core
