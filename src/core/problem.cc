#include "core/problem.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "common/check.h"
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

EdgeRankIndex::EdgeRankIndex(const Graph& g) : prefix_(g.NumNodes() + 1) {
  size_t edges = 0;
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    prefix_[u] = edges;
    std::span<const graph::NodeId> nbrs = g.Neighbors(u);
    edges += nbrs.end() - std::upper_bound(nbrs.begin(), nbrs.end(), u);
  }
  prefix_.back() = edges;
}

Result<std::vector<Edge>> EdgeRankIndex::Sample(const Graph& g, size_t count,
                                                Rng& rng) const {
  TPP_CHECK_EQ(prefix_.size(), g.NumNodes() + 1);
  TPP_CHECK_EQ(prefix_.back(), g.NumEdges());
  if (count > g.NumEdges()) {
    return Status::InvalidArgument(
        StrFormat("cannot sample %zu targets from %zu edges", count,
                  g.NumEdges()));
  }
  // The same index draw as rng.SampleK(g.Edges(), count), resolved
  // without materializing the edge list. Adjacency lists are sorted, so
  // u's upper neighbors are the last P[u+1] - P[u] entries of its list.
  std::vector<size_t> draws =
      rng.SampleWithoutReplacement(g.NumEdges(), count);
  std::vector<Edge> out;
  out.reserve(draws.size());
  for (size_t rank : draws) {
    const auto next =
        std::upper_bound(prefix_.begin() + 1, prefix_.end(), rank);
    const auto u = static_cast<graph::NodeId>(next - prefix_.begin() - 1);
    std::span<const graph::NodeId> nbrs = g.Neighbors(u);
    const size_t num_upper = *next - prefix_[u];
    TPP_CHECK_LE(num_upper, nbrs.size());
    const graph::NodeId v =
        nbrs[nbrs.size() - num_upper + (rank - prefix_[u])];
    TPP_CHECK_GT(v, u);
    out.emplace_back(u, v);
  }
  return out;
}

void EdgeRankIndex::ApplyDelta(const graph::GraphDelta& delta) {
  // Lower endpoints: +1 per insertion, -1 per removal. Swept in node
  // order, the running shift is added to one contiguous run of P at a
  // time (unsigned wrap-around makes a negative shift a subtraction).
  std::vector<std::pair<graph::NodeId, int64_t>> steps;
  steps.reserve(delta.size());
  for (const Edge& e : delta.inserted) {
    steps.emplace_back(std::min(e.u, e.v), 1);
  }
  for (const Edge& e : delta.removed) {
    steps.emplace_back(std::min(e.u, e.v), -1);
  }
  std::sort(steps.begin(), steps.end());
  int64_t shift = 0;
  for (size_t s = 0; s < steps.size();) {
    const size_t begin = size_t{steps[s].first} + 1;
    TPP_CHECK_LT(begin, prefix_.size());
    for (const graph::NodeId a = steps[s].first;
         s < steps.size() && steps[s].first == a; ++s) {
      shift += steps[s].second;
    }
    const size_t end =
        s < steps.size() ? size_t{steps[s].first} + 1 : prefix_.size();
    for (size_t w = begin; w < end; ++w) {
      prefix_[w] += static_cast<size_t>(shift);
    }
  }
}

Result<std::vector<Edge>> SampleTargets(const Graph& g, size_t count,
                                        Rng& rng) {
  return EdgeRankIndex(g).Sample(g, count, rng);
}

}  // namespace tpp::core
