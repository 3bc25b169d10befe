// Coverage of the addressable selection heap (core/selection_heap.h) and
// the greedy paths built on it: heap property fuzz against a sorted
// reference, the equal-gain tie-break regression (every production greedy
// loop and its reference cold sweep, tests/reference/cold_greedy.h), and
// the differential suite — dirty-aware CELF against the reference cold
// sweep over all motifs x both scopes x randomized budgets, on
// IndexedEngine and the NaiveEngine always-dirty fallback, including
// gain-evaluation accounting parity.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "core/naive_engine.h"
#include "core/problem.h"
#include "core/selection_heap.h"
#include "graph/generators.h"
#include "reference/cold_greedy.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using motif::MotifKind;

// ---------------------------------------------------------------------------
// Heap property fuzz: random insert / decrease / increase / remove
// sequences against a brute-force reference of the (priority desc, row
// asc) order.

// The reference top: first strict maximum by (priority, -row) over the
// live entries, exactly the flat-scan selection rule.
size_t ReferenceTop(const std::vector<uint64_t>& prio) {
  size_t best = prio.size();
  for (size_t i = 0; i < prio.size(); ++i) {
    if (prio[i] == 0) continue;
    if (best == prio.size() || prio[i] > prio[best]) best = i;
  }
  return best;
}

TEST(SelectionHeapTest, FuzzAgainstSortedReference) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    const size_t universe = 64 + rng.UniformIndex(64);
    std::vector<uint64_t> reference(universe, 0);
    SelectionHeap heap;

    // Bulk build from a random initial assignment (about half zero).
    heap.BuildBegin(universe);
    for (size_t i = 0; i < universe; ++i) {
      if (rng.Bernoulli(0.5)) reference[i] = 1 + rng.UniformIndex(20);
      heap.BuildAdd(static_cast<uint32_t>(i), reference[i]);
    }
    heap.BuildFinish();

    for (int op = 0; op < 2000; ++op) {
      const uint32_t row = static_cast<uint32_t>(rng.UniformIndex(universe));
      // Mix of removes (priority 0), fresh inserts, decreases, increases,
      // and no-op re-keys, whatever the row's current state.
      uint64_t next;
      switch (rng.UniformIndex(5)) {
        case 0: next = 0; break;
        case 1: next = reference[row]; break;  // no-op
        case 2: next = reference[row] / 2; break;
        case 3: next = reference[row] + 1 + rng.UniformIndex(5); break;
        default: next = 1 + rng.UniformIndex(40); break;
      }
      reference[row] = next;
      heap.Update(row, next);

      ASSERT_EQ(heap.Contains(row), next != 0);
      ASSERT_EQ(heap.PriorityOf(row), next);
      const size_t expect_top = ReferenceTop(reference);
      if (expect_top == universe) {
        ASSERT_TRUE(heap.Empty());
      } else {
        ASSERT_FALSE(heap.Empty());
        ASSERT_EQ(heap.TopRow(), expect_top);
        ASSERT_EQ(heap.TopPriority(), reference[expect_top]);
      }
      size_t live = 0;
      for (uint64_t p : reference) live += p != 0;
      ASSERT_EQ(heap.Size(), live);
    }

    // Drain by repeated top-removal: must come out in exact
    // (priority desc, row asc) order.
    uint64_t last_prio = ~uint64_t{0};
    uint32_t last_row = 0;
    bool first = true;
    while (!heap.Empty()) {
      const uint32_t row = heap.TopRow();
      const uint64_t prio = heap.TopPriority();
      if (!first) {
        ASSERT_TRUE(prio < last_prio || (prio == last_prio && row > last_row))
            << "pop order violated at row " << row;
      }
      first = false;
      last_prio = prio;
      last_row = row;
      ASSERT_EQ(prio, reference[row]);
      reference[row] = 0;
      heap.Update(row, 0);
    }
    ASSERT_EQ(ReferenceTop(reference), reference.size());
  }
}

// ---------------------------------------------------------------------------
// Equal-gain tie-break regression: a star gadget where EVERY candidate has
// the same gain, so selection order is decided purely by the tie-break.
// Nodes u=0, v=1 share neighbors w=2..5; the hidden target is (0,1), so
// each w forms one triangle target subgraph {(0,w), (1,w)}. All 8 released
// edges start at gain 1; the required picks are (0,2),(0,3),(0,4),(0,5) —
// smallest edge key first, with each pick zeroing its partner edge. Every
// production loop (SGB, CT, WT) and its reference cold sweep must produce
// exactly this order.

TppInstance StarTieFixture() {
  Graph g(6);
  for (graph::NodeId w = 2; w <= 5; ++w) {
    EXPECT_TRUE(g.AddEdge(0, w).ok());
    EXPECT_TRUE(g.AddEdge(1, w).ok());
  }
  TppInstance inst;
  inst.released = g;
  inst.targets = {Edge(0, 1)};
  inst.motif = MotifKind::kTriangle;
  return inst;
}

// Everything the solvers report except wall-clock timestamps.
void ExpectBitIdentical(const ProtectionResult& a, const ProtectionResult& b,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.initial_similarity, b.initial_similarity);
  EXPECT_EQ(a.final_similarity, b.final_similarity);
  EXPECT_EQ(a.gain_evaluations, b.gain_evaluations);
  ASSERT_EQ(a.picks.size(), b.picks.size());
  for (size_t i = 0; i < a.picks.size(); ++i) {
    EXPECT_EQ(a.protectors[i], b.protectors[i]) << "pick " << i;
    EXPECT_EQ(a.picks[i].realized_gain, b.picks[i].realized_gain)
        << "pick " << i;
    EXPECT_EQ(a.picks[i].for_target, b.picks[i].for_target) << "pick " << i;
    EXPECT_EQ(a.picks[i].similarity_after, b.picks[i].similarity_after)
        << "pick " << i;
  }
}

// One greedy loop on the star fixture with a budget of 4 picks: a
// production solver (`cold` false) or its reference cold sweep.
using StarRun = std::function<Result<ProtectionResult>(
    Engine&, const GreedyOptions&, bool cold)>;

struct StarSolver {
  std::string name;
  StarRun run;
};

std::vector<StarSolver> StarSolvers() {
  const std::vector<size_t> budgets = {4};  // the fixture's single target
  return {
      {"sgb",
       [](Engine& e, const GreedyOptions& o, bool cold) {
         return cold ? reference::SgbGreedyEagerCold(e, 4, o)
                     : SgbGreedy(e, 4, o);
       }},
      {"ct",
       [budgets](Engine& e, const GreedyOptions& o, bool cold) {
         return cold ? reference::CtGreedyCold(e, budgets, o)
                     : CtGreedy(e, budgets, o);
       }},
      {"wt",
       [budgets](Engine& e, const GreedyOptions& o, bool cold) {
         return cold ? reference::WtGreedyCold(e, budgets, o)
                     : WtGreedy(e, budgets, o);
       }},
  };
}

TEST(SelectionHeapTest, EqualGainTieBreaksBySmallestEdgeKey) {
  const TppInstance inst = StarTieFixture();
  const std::vector<Edge> expected = {Edge(0, 2), Edge(0, 3), Edge(0, 4),
                                      Edge(0, 5)};
  for (CandidateScope scope :
       {CandidateScope::kAllEdges, CandidateScope::kTargetSubgraphEdges}) {
    GreedyOptions options;
    options.scope = scope;
    for (const StarSolver& solver : StarSolvers()) {
      for (int engine_kind = 0; engine_kind < 2; ++engine_kind) {
        SCOPED_TRACE(solver.name +
                     (scope == CandidateScope::kAllEdges ? "/all"
                                                         : "/subgraph") +
                     (engine_kind == 0 ? "/indexed" : "/naive"));
        auto run = [&](bool cold) {
          IndexedEngine indexed = *IndexedEngine::Create(inst);
          NaiveEngine naive(inst);
          Engine& engine =
              engine_kind == 0 ? static_cast<Engine&>(indexed) : naive;
          return solver.run(engine, options, cold);
        };
        Result<ProtectionResult> result = run(/*cold=*/false);
        Result<ProtectionResult> cold = run(/*cold=*/true);
        ASSERT_TRUE(result.ok());
        ASSERT_TRUE(cold.ok());
        ASSERT_EQ(result->protectors.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(result->protectors[i], expected[i]) << "pick " << i;
          EXPECT_EQ(result->picks[i].realized_gain, 1u);
        }
        EXPECT_EQ(result->final_similarity, 0u);
        ExpectBitIdentical(*cold, *result, "production vs reference");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential suite: heap-backed selection against the reference cold
// sweep, every motif x both scopes x randomized budgets.

TppInstance SampledInstance(const Graph& g, size_t count, uint64_t seed,
                            MotifKind kind) {
  Rng rng(seed);
  auto targets = *SampleTargets(g, count, rng);
  return *MakeInstance(g, targets, kind);
}

Graph TestGraph(uint64_t seed) {
  Rng rng(seed);
  return *graph::HolmeKim(180, 4, 0.3, rng);
}

class SelectionHeapGreedyTest : public ::testing::TestWithParam<MotifKind> {};

// Dirty-aware CELF must be bit-identical — picks, traces, AND the
// gain-evaluation work metric — to the eager cold sweep, on the indexed
// engine and the NaiveEngine always-dirty fallback, at randomized budgets.
TEST_P(SelectionHeapGreedyTest, DirtyCelfMatchesEagerColdSweep) {
  const MotifKind kind = GetParam();
  const Graph g = TestGraph(11);
  Rng budget_rng(kind == MotifKind::kTriangle ? 101 : 202);
  for (uint64_t seed : {5u, 6u}) {
    const TppInstance inst = SampledInstance(g, 10, seed, kind);
    const IndexedEngine prototype = *IndexedEngine::Create(inst);
    const size_t budget = 5 + budget_rng.UniformIndex(30);
    for (CandidateScope scope :
         {CandidateScope::kAllEdges, CandidateScope::kTargetSubgraphEdges}) {
      const std::string tag =
          scope == CandidateScope::kAllEdges ? "/all" : "/subgraph";
      GreedyOptions cold, celf;
      cold.scope = celf.scope = scope;

      IndexedEngine cold_engine = prototype.Clone();
      IndexedEngine celf_engine = prototype.Clone();
      auto cold_result =
          reference::SgbGreedyEagerCold(cold_engine, budget, cold);
      auto celf_result = SgbGreedy(celf_engine, budget, celf);
      ASSERT_TRUE(cold_result.ok());
      ASSERT_TRUE(celf_result.ok());
      ExpectBitIdentical(*cold_result, *celf_result, "indexed" + tag);
      ASSERT_GT(celf_result->picks.size(), 0u);

      NaiveEngine naive_cold(inst);
      NaiveEngine naive_celf(inst);
      auto nc = reference::SgbGreedyEagerCold(naive_cold, budget, cold);
      auto nl = SgbGreedy(naive_celf, budget, celf);
      ASSERT_TRUE(nc.ok());
      ASSERT_TRUE(nl.ok());
      ExpectBitIdentical(*nc, *nl, "naive" + tag);
      // And across engines: same picks/accounting either way.
      ExpectBitIdentical(*cold_result, *nl, "indexed cold vs naive celf" + tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMotifs, SelectionHeapGreedyTest,
                         ::testing::Values(MotifKind::kTriangle,
                                           MotifKind::kRectangle,
                                           MotifKind::kRecTri,
                                           MotifKind::kPentagon),
                         [](const auto& info) {
                           return std::string(motif::MotifName(info.param));
                         });

}  // namespace
}  // namespace tpp::core
