// Unit tests for the Naive and Indexed engines against hand-computed
// values, plus the candidate-scope contract.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/indexed_engine.h"
#include "core/naive_engine.h"
#include "core/problem.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;
using graph::MakeEdgeKey;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

TppInstance DiamondInstance() {
  // Original graph: diamond 0-2-1-3 + target edge (0,1) + pendant (3,4).
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 1}, {3, 4}});
  return *MakeInstance(g, {E(0, 1)}, motif::MotifKind::kTriangle);
}

template <typename EngineT>
std::unique_ptr<Engine> MakeEngine(const TppInstance& inst);

template <>
std::unique_ptr<Engine> MakeEngine<NaiveEngine>(const TppInstance& inst) {
  return std::make_unique<NaiveEngine>(inst);
}

template <>
std::unique_ptr<Engine> MakeEngine<IndexedEngine>(const TppInstance& inst) {
  return std::make_unique<IndexedEngine>(*IndexedEngine::Create(inst));
}

template <typename EngineT>
class EngineContractTest : public ::testing::Test {};

using EngineTypes = ::testing::Types<NaiveEngine, IndexedEngine>;
TYPED_TEST_SUITE(EngineContractTest, EngineTypes);

TYPED_TEST(EngineContractTest, InitialSimilarity) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  EXPECT_EQ(engine->NumTargets(), 1u);
  EXPECT_EQ(engine->TotalSimilarity(), 2u);
  EXPECT_EQ(engine->SimilarityOf(0), 2u);
}

TYPED_TEST(EngineContractTest, GainValues) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  EXPECT_EQ(engine->Gain(MakeEdgeKey(0, 2)), 1u);
  EXPECT_EQ(engine->Gain(MakeEdgeKey(2, 1)), 1u);
  EXPECT_EQ(engine->Gain(MakeEdgeKey(3, 4)), 0u);
  auto split = engine->GainFor(MakeEdgeKey(0, 2), 0);
  EXPECT_EQ(split.own, 1u);
  EXPECT_EQ(split.cross, 0u);
}

TYPED_TEST(EngineContractTest, DeleteEdgeRealizesGain) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  EXPECT_EQ(engine->DeleteEdge(MakeEdgeKey(0, 2)), 1u);
  EXPECT_EQ(engine->TotalSimilarity(), 1u);
  EXPECT_FALSE(engine->CurrentGraph().HasEdge(0, 2));
  // Deleting the partner edge of the dead triangle gains nothing.
  EXPECT_EQ(engine->DeleteEdge(MakeEdgeKey(2, 1)), 0u);
  // Deleting an already-deleted edge is a no-op.
  EXPECT_EQ(engine->DeleteEdge(MakeEdgeKey(0, 2)), 0u);
  EXPECT_EQ(engine->TotalSimilarity(), 1u);
}

TYPED_TEST(EngineContractTest, CandidateScopes) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  auto all = engine->Candidates(CandidateScope::kAllEdges);
  EXPECT_EQ(all.size(), 5u);  // released graph edges
  auto restricted = engine->Candidates(CandidateScope::kTargetSubgraphEdges);
  EXPECT_EQ(restricted.size(), 4u);  // pendant (3,4) excluded
  EXPECT_TRUE(std::is_sorted(restricted.begin(), restricted.end()));
  // After killing one triangle, the restricted scope shrinks to the other.
  engine->DeleteEdge(MakeEdgeKey(0, 2));
  auto shrunk = engine->Candidates(CandidateScope::kTargetSubgraphEdges);
  EXPECT_EQ(shrunk.size(), 2u);
}

TYPED_TEST(EngineContractTest, GainVectorSplitsPerTarget) {
  // Two targets sharing a protector edge: (0,1) and (0,4) both have
  // triangles through node 2 using edge (0,2).
  Graph g = MakeGraph(5,
                      {{0, 1}, {0, 4}, {0, 2}, {2, 1}, {2, 4}});
  TppInstance inst =
      *MakeInstance(g, {E(0, 1), E(0, 4)}, motif::MotifKind::kTriangle);
  auto engine = MakeEngine<TypeParam>(inst);
  std::vector<size_t> diffs = engine->GainVector(MakeEdgeKey(0, 2));
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], 1u);
  EXPECT_EQ(diffs[1], 1u);
  // Consistency with Gain and GainFor.
  EXPECT_EQ(engine->Gain(MakeEdgeKey(0, 2)), 2u);
  auto split = engine->GainFor(MakeEdgeKey(0, 2), 1);
  EXPECT_EQ(split.own, 1u);
  EXPECT_EQ(split.cross, 1u);
  // Edge not in any instance: all-zero vector.
  std::vector<size_t> zero = engine->GainVector(MakeEdgeKey(2, 4));
  EXPECT_EQ(zero[0] + zero[1], engine->Gain(MakeEdgeKey(2, 4)));
}

TYPED_TEST(EngineContractTest, GainEvaluationCounter) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  uint64_t before = engine->GainEvaluations();
  engine->Gain(MakeEdgeKey(0, 2));
  engine->GainFor(MakeEdgeKey(2, 1), 0);
  EXPECT_EQ(engine->GainEvaluations(), before + 2);
}

TEST(IndexedEngineTest, CreateFailsOnPresentTarget) {
  TppInstance inst;
  inst.released = MakeGraph(3, {{0, 1}, {1, 2}});
  inst.targets = {E(0, 1)};  // still present: phase-1 skipped
  inst.motif = motif::MotifKind::kTriangle;
  EXPECT_FALSE(IndexedEngine::Create(inst).ok());
}

TEST(NaiveEngineTest, GainOnAbsentEdgeIsZero) {
  TppInstance inst = DiamondInstance();
  NaiveEngine engine(inst);
  EXPECT_EQ(engine.Gain(MakeEdgeKey(0, 4)), 0u);  // not an edge
}

// Clone semantics: clones share the prototype's instance and carry only
// their own committed deletions, so every observable answer must match an
// engine that owns a private copy of the graph.

TppInstance RandomInstance(motif::MotifKind motif, uint64_t seed) {
  Rng rng(seed);
  Graph g = *graph::ErdosRenyiGnp(36, 0.2, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
  return *MakeInstance(g, targets, motif);
}

// The first `count` restricted-scope candidates: edges whose deletion
// changes some gain, so the deletions below exercise the index too.
std::vector<graph::EdgeKey> SomeProtectors(IndexedEngine& engine,
                                           size_t count) {
  std::vector<graph::EdgeKey> c =
      engine.Candidates(CandidateScope::kTargetSubgraphEdges);
  if (c.size() > count) c.resize(count);
  return c;
}

std::vector<size_t> AllGains(IndexedEngine& engine) {
  std::vector<graph::EdgeKey> edges =
      engine.Candidates(CandidateScope::kAllEdges);
  return engine.BatchGain(edges);
}

class IndexedEngineCloneTest
    : public ::testing::TestWithParam<motif::MotifKind> {};

TEST_P(IndexedEngineCloneTest, DeletionsStayPrivateToTheClone) {
  TppInstance inst = RandomInstance(GetParam(), 3);
  IndexedEngine prototype = *IndexedEngine::Create(inst);
  const size_t similarity = prototype.TotalSimilarity();
  const std::vector<size_t> gains = AllGains(prototype);
  IndexedEngine first = prototype.Clone();
  IndexedEngine sibling = prototype.Clone();
  std::vector<graph::EdgeKey> picks = SomeProtectors(first, 3);
  ASSERT_FALSE(picks.empty());
  for (graph::EdgeKey e : picks) first.DeleteEdge(e);
  EXPECT_LT(first.TotalSimilarity(), similarity);

  for (IndexedEngine* other : {&prototype, &sibling}) {
    EXPECT_EQ(other->TotalSimilarity(), similarity);
    EXPECT_EQ(AllGains(*other), gains);
    EXPECT_TRUE(other->CurrentGraph() == inst.released);
    for (graph::EdgeKey e : picks) {
      EXPECT_TRUE(other->CurrentGraph().HasEdgeKey(e));
    }
  }
  // A sibling deleting the same edge is not a no-op: the first clone's
  // deletion is not visible to it.
  EXPECT_GT(sibling.DeleteEdge(picks[0]), 0u);
}

TEST_P(IndexedEngineCloneTest, CurrentGraphIsBaseMinusDeletions) {
  TppInstance inst = RandomInstance(GetParam(), 4);
  IndexedEngine prototype = *IndexedEngine::Create(inst);
  IndexedEngine clone = prototype.Clone();
  // A reference taken before any deletion follows every later one.
  const Graph& current = clone.CurrentGraph();
  EXPECT_TRUE(current == inst.released);

  std::vector<graph::EdgeKey> all =
      clone.Candidates(CandidateScope::kAllEdges);
  ASSERT_GE(all.size(), 4u);
  Graph expected = inst.released;
  ASSERT_TRUE(expected.RemoveEdgeKey(all[1]).ok());
  clone.DeleteEdge(all[1]);
  EXPECT_TRUE(current == expected);
  // Repeats and non-edges (a target link) are no-ops.
  for (graph::EdgeKey e : {all[3], all[0], all[1]}) {
    if (expected.HasEdgeKey(e)) {
      ASSERT_TRUE(expected.RemoveEdgeKey(e).ok());
    }
    clone.DeleteEdge(e);
  }
  EXPECT_EQ(clone.DeleteEdge(inst.targets[0].Key()), 0u);
  EXPECT_TRUE(current == expected);
  EXPECT_EQ(&clone.CurrentGraph(), &current);
  EXPECT_TRUE(prototype.CurrentGraph() == inst.released);
  // A clone of a clone starts from the same deletions.
  EXPECT_TRUE(clone.Clone().CurrentGraph() == expected);
}

template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

// The fresh engine runs the same overlay code as the clone, so the naive
// engine (which owns and edits its graph) is the independent reference.
TEST_P(IndexedEngineCloneTest, FullScopeQueriesMatchAFreshEngine) {
  TppInstance inst = RandomInstance(GetParam(), 5);
  IndexedEngine prototype = *IndexedEngine::Create(inst);
  IndexedEngine clone = prototype.Clone();
  IndexedEngine fresh = *IndexedEngine::Create(inst);
  NaiveEngine naive(inst);
  std::vector<graph::EdgeKey> all =
      fresh.Candidates(CandidateScope::kAllEdges);
  std::vector<graph::EdgeKey> picks = SomeProtectors(fresh, 2);
  // Two protectors plus the last full-scope edge, whether or not it is in
  // a target subgraph.
  picks.push_back(all.back());
  for (bool per_target : {false, true}) {
    SCOPED_TRACE(per_target ? "per-target rows" : "totals only");
    for (graph::EdgeKey e : picks) {
      const size_t killed = naive.DeleteEdge(e);
      EXPECT_EQ(clone.DeleteEdge(e), killed);
      EXPECT_EQ(fresh.DeleteEdge(e), killed);
      const std::vector<graph::EdgeKey> want =
          naive.Candidates(CandidateScope::kAllEdges);
      EXPECT_EQ(clone.Candidates(CandidateScope::kAllEdges), want);
      EXPECT_EQ(fresh.Candidates(CandidateScope::kAllEdges), want);
      std::vector<graph::EdgeKey> into;
      clone.CandidatesInto(CandidateScope::kAllEdges, &into);
      EXPECT_EQ(into, want);
      const RoundGains& a =
          clone.BeginRound(CandidateScope::kAllEdges, per_target);
      const RoundGains& b =
          fresh.BeginRound(CandidateScope::kAllEdges, per_target);
      const RoundGains& c =
          naive.BeginRound(CandidateScope::kAllEdges, per_target);
      // The naive engine rebuilds its universe every round; an indexed
      // session keeps its start-of-session universe (deleted edges stay
      // as zero rows), so the views compare only on a session's first
      // round.
      EXPECT_EQ(a.all_dirty, b.all_dirty);
      for (const RoundGains* other : {&b, &c}) {
        if (other == &c && !a.all_dirty) continue;
        EXPECT_EQ(a.num_candidates, other->num_candidates);
        EXPECT_EQ(ToVector(a.edges), ToVector(other->edges));
        EXPECT_EQ(ToVector(a.totals), ToVector(other->totals));
        EXPECT_EQ(ToVector(a.rows), ToVector(other->rows));
      }
      EXPECT_EQ(a.num_candidates, c.num_candidates);
    }
    picks = SomeProtectors(fresh, 2);
  }
  EXPECT_TRUE(clone.CurrentGraph() == naive.CurrentGraph());
  EXPECT_TRUE(fresh.CurrentGraph() == naive.CurrentGraph());
  EXPECT_EQ(clone.GainEvaluations(), fresh.GainEvaluations());
}

TEST_P(IndexedEngineCloneTest, ApplyEditLeavesLiveClonesUntouched) {
  TppInstance inst = RandomInstance(GetParam(), 6);
  IndexedEngine prototype = *IndexedEngine::Create(inst);
  IndexedEngine clone = prototype.Clone();
  const Graph graph_before = inst.released;
  const std::vector<size_t> gains_before = AllGains(clone);
  const TppInstance* shared = &prototype.instance();
  EXPECT_EQ(&clone.instance(), shared);

  // Remove one released edge, insert one absent non-target pair.
  graph::GraphDelta delta;
  delta.removed = {graph_before.Edges()[0]};
  for (graph::NodeId v = 1; delta.inserted.empty(); ++v) {
    const Edge e(0, v);
    bool target = false;
    for (const Edge& t : inst.targets) target |= t == e;
    if (!graph_before.HasEdge(0, v) && !target) delta.inserted = {e};
  }
  // A graph read before the edit is rebuilt after it.
  EXPECT_TRUE(prototype.CurrentGraph() == graph_before);
  ASSERT_TRUE(prototype.ApplyEdit(delta).ok());
  Graph edited = graph_before;
  ASSERT_TRUE(edited.ApplyDelta(delta).ok());
  EXPECT_TRUE(prototype.CurrentGraph() == edited);
  EXPECT_TRUE(clone.CurrentGraph() == graph_before);
  EXPECT_EQ(AllGains(clone), gains_before);
  // The edit copied the shared instance: the clone keeps the pre-edit
  // one, the prototype's own copy carries the edit.
  EXPECT_EQ(&clone.instance(), shared);
  EXPECT_NE(&prototype.instance(), shared);
  EXPECT_TRUE(clone.instance().released == graph_before);
  EXPECT_EQ(clone.instance().targets, inst.targets);
  EXPECT_EQ(prototype.instance().targets, inst.targets);
  Graph original = edited;
  for (const Edge& t : inst.targets) {
    ASSERT_TRUE(original.AddEdge(t.u, t.v).ok());
  }
  EXPECT_TRUE(prototype.instance().released ==
              MakeInstance(original, inst.targets, GetParam())->released);

  // The repaired prototype answers like a cold build on the edited graph.
  TppInstance edited_inst = inst;
  edited_inst.released = edited;
  IndexedEngine cold = *IndexedEngine::Create(edited_inst);
  EXPECT_EQ(AllGains(prototype), AllGains(cold));
  EXPECT_EQ(prototype.TotalSimilarity(), cold.TotalSimilarity());

  // Failing edits on a shared graph leave prototype and clone as they
  // were: removing an absent edge fails in the graph, inserting a target
  // link passes the graph and fails in the index repair.
  IndexedEngine second = prototype.Clone();
  const TppInstance* second_instance = &second.instance();
  graph::GraphDelta absent;
  absent.removed = {delta.removed[0]};
  graph::GraphDelta target_link;
  target_link.inserted = {inst.targets[0]};
  for (const graph::GraphDelta& bad : {absent, target_link}) {
    EXPECT_FALSE(prototype.ApplyEdit(bad).ok());
    EXPECT_TRUE(prototype.CurrentGraph() == edited);
    EXPECT_TRUE(second.CurrentGraph() == edited);
    EXPECT_TRUE(prototype.instance().released == edited);
    EXPECT_EQ(&second.instance(), second_instance);
    EXPECT_TRUE(second.instance().released == edited);
    EXPECT_EQ(AllGains(prototype), AllGains(cold));
  }

  // An engine with committed deletions refuses edits, even when the
  // deleted edge is in no target subgraph (the index alone would still
  // look fresh).
  graph::EdgeKey idle = 0;
  for (graph::EdgeKey e : second.Candidates(CandidateScope::kAllEdges)) {
    if (second.Gain(e) == 0) idle = e;
  }
  ASSERT_NE(idle, 0u);
  second.DeleteEdge(idle);
  graph::GraphDelta undo;
  undo.removed = delta.inserted;
  EXPECT_EQ(second.ApplyEdit(undo).code(), StatusCode::kFailedPrecondition);
}

// The repository's warm-store fallback hands a rejected snapshot's
// instance on to the cold build, so a failed Adopt must not take it.
TEST_P(IndexedEngineCloneTest, RejectedAdoptionKeepsTheInstance) {
  TppInstance inst = RandomInstance(GetParam(), 7);
  std::vector<Edge> fewer(inst.targets.begin(), inst.targets.end() - 1);
  Result<motif::IncidenceIndex> index =
      motif::IncidenceIndex::Build(inst.released, fewer, GetParam());
  ASSERT_TRUE(index.ok());
  TppInstance kept = inst;
  Result<IndexedEngine> adopted =
      IndexedEngine::Adopt(std::move(kept), std::move(*index));
  EXPECT_EQ(adopted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(kept.released == inst.released);
  EXPECT_EQ(kept.targets, inst.targets);
  EXPECT_EQ(kept.motif, inst.motif);
  Result<IndexedEngine> cold = IndexedEngine::Create(std::move(kept));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->NumTargets(), inst.targets.size());
  EXPECT_TRUE(cold->instance().released == inst.released);
}

INSTANTIATE_TEST_SUITE_P(
    Motifs, IndexedEngineCloneTest,
    ::testing::Values(motif::MotifKind::kTriangle,
                      motif::MotifKind::kRectangle),
    [](const ::testing::TestParamInfo<motif::MotifKind>& info) {
      return std::string(motif::MotifName(info.param));
    });

}  // namespace
}  // namespace tpp::core
