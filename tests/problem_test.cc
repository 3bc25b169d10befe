// Tests for TPP instance construction and target sampling.

#include "core/problem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/fixtures.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

TEST(MakeInstanceTest, RemovesTargets) {
  Graph g = graph::MakeComplete(5);
  auto inst = MakeInstance(g, {E(0, 1), E(2, 3)}, motif::MotifKind::kTriangle);
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->released.NumEdges(), g.NumEdges() - 2);
  EXPECT_FALSE(inst->released.HasEdge(0, 1));
  EXPECT_FALSE(inst->released.HasEdge(2, 3));
  EXPECT_EQ(inst->targets.size(), 2u);
  // The input graph is untouched.
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(MakeInstanceTest, RejectsNonEdgesAndDuplicates) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}});
  EXPECT_FALSE(MakeInstance(g, {E(0, 3)}, motif::MotifKind::kTriangle).ok());
  EXPECT_FALSE(
      MakeInstance(g, {E(0, 1), E(1, 0)}, motif::MotifKind::kTriangle).ok());
}

TEST(SampleTargetsTest, DistinctExistingEdges) {
  Graph g = graph::MakeKarateClub();
  Rng rng(5);
  auto targets = SampleTargets(g, 20, rng);
  ASSERT_TRUE(targets.ok());
  EXPECT_EQ(targets->size(), 20u);
  std::set<graph::EdgeKey> keys;
  for (const Edge& t : *targets) {
    EXPECT_TRUE(g.HasEdge(t.u, t.v));
    keys.insert(t.Key());
  }
  EXPECT_EQ(keys.size(), 20u);
}

TEST(SampleTargetsTest, RejectsOversample) {
  Graph g = MakeGraph(3, {{0, 1}});
  Rng rng(1);
  EXPECT_FALSE(SampleTargets(g, 2, rng).ok());
}

TEST(SampleTargetsTest, DeterministicGivenSeed) {
  Graph g = graph::MakeKarateClub();
  Rng a(77), b(77);
  auto ta = *SampleTargets(g, 10, a);
  auto tb = *SampleTargets(g, 10, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
}

// Random graph with isolated nodes (ids at or above `n * 3 / 4` get no
// random edges) and one hub joined to about half of the nodes.
Graph RandomHubGraph(Rng& rng) {
  const size_t n = 2 + rng.UniformIndex(60);
  Graph g(n);
  const size_t connected = std::max<size_t>(2, n * 3 / 4);
  const size_t tries = rng.UniformIndex(3 * n);
  for (size_t i = 0; i < tries; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(connected));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(connected));
    if (u != v && !g.HasEdge(u, v)) {
      EXPECT_TRUE(g.AddEdge(u, v).ok());
    }
  }
  const auto hub = static_cast<graph::NodeId>(rng.UniformIndex(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v != hub && rng.UniformReal() < 0.5 && !g.HasEdge(hub, v)) {
      EXPECT_TRUE(g.AddEdge(hub, v).ok());
    }
  }
  return g;
}

// Checks `sample` (one draw of k edges from `g`, advancing its Rng)
// against rng.SampleK(g.Edges(), k) for the sample sizes that exercise
// the draw's branches: 0, 1, small, the dense-shuffle threshold
// (k >= m/3) and all edges. Returns the number of cases checked.
template <typename SampleFn>
size_t ExpectSamplesMatchTheEdgeList(const Graph& g, SampleFn sample) {
  const size_t m = g.NumEdges();
  size_t cases = 0;
  for (size_t k : {size_t{0}, size_t{1}, size_t{3}, m / 3, (m + 2) / 3,
                   m / 2, m}) {
    if (k > m) continue;
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(g.DebugString() + " k=" + std::to_string(k) +
                   " seed=" + std::to_string(seed));
      Rng fast(seed);
      Rng reference(seed);
      Result<std::vector<Edge>> sampled = sample(k, fast);
      EXPECT_TRUE(sampled.ok());
      if (!sampled.ok()) continue;
      EXPECT_EQ(*sampled, reference.SampleK(g.Edges(), k));
      EXPECT_EQ(fast.engine()(), reference.engine()());
      ++cases;
    }
  }
  return cases;
}

// Queues a flip of {u, v}: removal if present in the session's pending
// view, insertion otherwise.
void Toggle(Graph::EditSession& session, graph::NodeId u, graph::NodeId v) {
  if (u == v) return;
  if (!session.Insert(u, v).ok()) EXPECT_TRUE(session.Remove(u, v).ok());
}

// A normalized delta against `g` of one of four shapes, chosen by
// `shape`: both ends of the node range, an isolated node gaining edges, a
// node stripped of its upper neighbors, or scattered flips.
graph::GraphDelta RandomDelta(const Graph& g, int shape, Rng& rng) {
  const size_t n = g.NumNodes();
  auto any = [&] { return static_cast<graph::NodeId>(rng.UniformIndex(n)); };
  Graph scratch = g;
  Graph::EditSession session = scratch.BeginEdit();
  switch (shape) {
    case 0:
      Toggle(session, 0, any());
      Toggle(session, any(), static_cast<graph::NodeId>(n - 1));
      break;
    case 1:
      for (graph::NodeId u = 0; u < n; ++u) {
        if (g.Degree(u) != 0) continue;
        Toggle(session, u, any());
        Toggle(session, u, any());
        break;
      }
      break;
    case 2: {
      const graph::NodeId start = any();
      for (graph::NodeId i = 0; i < n; ++i) {
        const auto u = static_cast<graph::NodeId>((start + i) % n);
        std::span<const graph::NodeId> nbrs = g.Neighbors(u);
        if (nbrs.empty() || nbrs.back() < u) continue;
        for (graph::NodeId v : nbrs) {
          if (v > u) EXPECT_TRUE(session.Remove(u, v).ok());
        }
        break;
      }
      break;
    }
    default:
      for (size_t i = 1 + rng.UniformIndex(6); i > 0; --i) {
        Toggle(session, any(), any());
      }
  }
  Result<graph::GraphDelta> delta = session.Commit();
  EXPECT_TRUE(delta.ok());
  return delta.ok() ? *delta : graph::GraphDelta{};
}

// Which boundary cases the applied deltas reached.
struct DeltaCoverage {
  size_t node_zero = 0;
  size_t last_node = 0;
  size_t isolated = 0;  // a node of degree 0 gained an edge
  size_t stripped = 0;  // a node lost every upper neighbor
};
void Tally(const Graph& before, const Graph& after,
           const graph::GraphDelta& delta, DeltaCoverage& coverage) {
  const graph::NodeId last = static_cast<graph::NodeId>(before.NumNodes() - 1);
  for (const auto* list : {&delta.inserted, &delta.removed}) {
    for (const Edge& e : *list) {
      coverage.node_zero += e.u == 0 || e.v == 0;
      coverage.last_node += e.u == last || e.v == last;
    }
  }
  for (const Edge& e : delta.inserted) {
    coverage.isolated += before.Degree(e.u) == 0 || before.Degree(e.v) == 0;
  }
  auto has_upper = [](const Graph& g, graph::NodeId u) {
    return !g.Neighbors(u).empty() && g.Neighbors(u).back() > u;
  };
  for (graph::NodeId u = 0; u <= last; ++u) {
    coverage.stripped += has_upper(before, u) && !has_upper(after, u);
  }
}

// SampleTargets resolves its index draw without materializing the edge
// list; it must return exactly what sampling from g.Edges() returned, and
// leave the generator at the same point of its stream (the pipeline keeps
// solving on the same Rng). A held EdgeRankIndex patched through a chain
// of edits must equal one rebuilt on the edited graph and draw the same.
TEST(SampleTargetsTest, MatchesSamplingFromTheEdgeList) {
  Rng graph_rng(2024);
  size_t cases = 0;
  size_t patched_cases = 0;
  DeltaCoverage coverage;
  for (int trial = 0; trial < 60; ++trial) {
    Graph g = RandomHubGraph(graph_rng);
    cases += ExpectSamplesMatchTheEdgeList(g, [&](size_t k, Rng& rng) {
      return SampleTargets(g, k, rng);
    });

    EdgeRankIndex held(g);
    for (int step = 0; step < 8; ++step) {
      const graph::GraphDelta delta = RandomDelta(g, step % 4, graph_rng);
      const Graph before = g;
      ASSERT_TRUE(g.ApplyDelta(delta).ok());
      Tally(before, g, delta, coverage);
      held.ApplyDelta(delta);
      ASSERT_EQ(held, EdgeRankIndex(g)) << g.DebugString() << " step " << step;
      patched_cases +=
          ExpectSamplesMatchTheEdgeList(g, [&](size_t k, Rng& rng) {
            return held.Sample(g, k, rng);
          });
    }
  }
  EXPECT_GT(cases, 1000u);
  EXPECT_GT(patched_cases, 8000u);
  EXPECT_GT(coverage.node_zero, 0u);
  EXPECT_GT(coverage.last_node, 0u);
  EXPECT_GT(coverage.isolated, 0u);
  EXPECT_GT(coverage.stripped, 0u);
}

TEST(EdgeRankIndexTest, PrefixCountsUpperDegrees) {
  // 0-1, 0-2, 1-2, 2-3; node 4 isolated. Upper degrees 2, 1, 1, 0, 0.
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  EdgeRankIndex index(g);
  EXPECT_EQ(std::vector<size_t>(index.prefix().begin(), index.prefix().end()),
            (std::vector<size_t>{0, 2, 3, 4, 4, 4}));
}

TEST(EdgeRankIndexTest, StaleIndexAborts) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}});
  EdgeRankIndex index(g);
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  Rng rng(1);
  EXPECT_DEATH({ (void)index.Sample(g, 1, rng); }, "");
}

}  // namespace
}  // namespace tpp::core
