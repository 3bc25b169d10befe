// Tests for TPP instance construction and target sampling.

#include "core/problem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

// SampleTargets resolves its index draw without materializing the edge
// list; it must return exactly what sampling from g.Edges() returned, and
// leave the generator at the same point of its stream (the pipeline keeps
// solving on the same Rng).
TEST(SampleTargetsTest, MatchesSamplingFromTheEdgeList) {
  Rng graph_rng(2024);
  size_t cases = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = RandomHubGraph(graph_rng);
    const size_t m = g.NumEdges();
    // 0, 1, small, the dense-shuffle threshold (k >= m/3) and all edges.
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, m / 3, (m + 2) / 3,
                     m / 2, m}) {
      if (k > m) continue;
      for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(g.DebugString() + " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        Rng fast(seed);
        Rng reference(seed);
        Result<std::vector<Edge>> sampled = SampleTargets(g, k, fast);
        ASSERT_TRUE(sampled.ok());
        EXPECT_EQ(*sampled, reference.SampleK(g.Edges(), k));
        EXPECT_EQ(fast.engine()(), reference.engine()());
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 1000u);
}

}  // namespace
}  // namespace tpp::core
