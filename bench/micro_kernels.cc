// google-benchmark micro-kernels for the library's hot paths: motif
// enumeration, incidence-index construction, gain queries, greedy picks,
// target sampling, and the utility-metric substrates.

#include <benchmark/benchmark.h>

#include "community/louvain.h"
#include "core/tpp.h"
#include "graph/datasets.h"
#include "graph/fixtures.h"
#include "graph/traversal.h"
#include "metrics/clustering.h"
#include "metrics/kcore.h"
#include "metrics/spectral.h"
#include "motif/enumerate.h"
#include "motif/incidence_index.h"
#include "reference/legacy_incidence_index.h"

namespace tpp {
namespace {

using core::IndexedEngine;
using core::NaiveEngine;
using core::TppInstance;
using graph::Graph;
using motif::MotifKind;

const Graph& ArenasGraph() {
  static const Graph* graph = new Graph(*graph::MakeArenasEmailLike(1));
  return *graph;
}

TppInstance MakeArenasInstance(MotifKind kind, size_t num_targets) {
  Rng rng(7);
  auto targets = *core::SampleTargets(ArenasGraph(), num_targets, rng);
  return *core::MakeInstance(ArenasGraph(), targets, kind);
}

void BM_CountTargetSubgraphs(benchmark::State& state) {
  MotifKind kind = static_cast<MotifKind>(state.range(0));
  TppInstance inst = MakeArenasInstance(kind, 20);
  size_t i = 0;
  for (auto _ : state) {
    const graph::Edge& t = inst.targets[i++ % inst.targets.size()];
    benchmark::DoNotOptimize(
        motif::CountTargetSubgraphs(inst.released, t, kind));
  }
}
BENCHMARK(BM_CountTargetSubgraphs)->Arg(0)->Arg(1)->Arg(2);

void BM_IncidenceIndexBuild(benchmark::State& state) {
  MotifKind kind = static_cast<MotifKind>(state.range(0));
  TppInstance inst = MakeArenasInstance(kind, 20);
  for (auto _ : state) {
    auto index =
        motif::IncidenceIndex::Build(inst.released, inst.targets, kind);
    benchmark::DoNotOptimize(index.ok());
  }
}
BENCHMARK(BM_IncidenceIndexBuild)->Arg(0)->Arg(1)->Arg(2);

// One eager greedy round's query work on the historical map-based index:
// enumerate alive candidates (map traversal + liveness walks + sort), then
// a hash+posting-walk Gain per candidate.
void BM_LegacyGainSweep(benchmark::State& state) {
  MotifKind kind = static_cast<MotifKind>(state.range(0));
  TppInstance inst = MakeArenasInstance(kind, 20);
  auto index = *reference::LegacyIncidenceIndex::Build(inst.released,
                                                       inst.targets, kind);
  for (auto _ : state) {
    size_t sum = 0;
    for (graph::EdgeKey e : index.AliveCandidateEdges()) {
      sum += index.Gain(e);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_LegacyGainSweep)->Arg(0)->Arg(1)->Arg(2);

// The same round on the CSR index: one scan of the cached alive counts.
void BM_CsrGainSweep(benchmark::State& state) {
  MotifKind kind = static_cast<MotifKind>(state.range(0));
  TppInstance inst = MakeArenasInstance(kind, 20);
  auto index =
      *motif::IncidenceIndex::Build(inst.released, inst.targets, kind);
  std::vector<graph::EdgeKey> edges;
  std::vector<size_t> gains;
  for (auto _ : state) {
    index.AliveCandidateGains(&edges, &gains);
    size_t sum = 0;
    for (size_t g : gains) sum += g;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CsrGainSweep)->Arg(0)->Arg(1)->Arg(2);

// Delete-commit kernels: kill every instance, edge by edge. The CSR path
// additionally maintains the per-edge alive-count caches.
void BM_LegacyDeleteCommit(benchmark::State& state) {
  TppInstance inst = MakeArenasInstance(MotifKind::kRectangle, 20);
  auto index = *reference::LegacyIncidenceIndex::Build(
      inst.released, inst.targets, MotifKind::kRectangle);
  auto candidates = index.AliveCandidateEdges();
  for (auto _ : state) {
    state.PauseTiming();
    auto scratch = index;  // copy excluded from the measurement
    state.ResumeTiming();
    for (graph::EdgeKey e : candidates) scratch.DeleteEdge(e);
    benchmark::DoNotOptimize(scratch.TotalAlive());
  }
}
BENCHMARK(BM_LegacyDeleteCommit);

void BM_CsrDeleteCommit(benchmark::State& state) {
  TppInstance inst = MakeArenasInstance(MotifKind::kRectangle, 20);
  auto index = *motif::IncidenceIndex::Build(inst.released, inst.targets,
                                             MotifKind::kRectangle);
  auto candidates = index.AliveCandidateEdges();
  for (auto _ : state) {
    state.PauseTiming();
    auto scratch = index;  // copy excluded from the measurement
    state.ResumeTiming();
    for (graph::EdgeKey e : candidates) scratch.DeleteEdge(e);
    benchmark::DoNotOptimize(scratch.TotalAlive());
  }
}
BENCHMARK(BM_CsrDeleteCommit);

// Batched keyed sweep at an explicit thread budget.
void BM_IndexedBatchGain(benchmark::State& state) {
  TppInstance inst = MakeArenasInstance(MotifKind::kRectangle, 20);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  engine.set_threads(static_cast<int>(state.range(0)));
  auto candidates =
      engine.Candidates(core::CandidateScope::kTargetSubgraphEdges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.BatchGain(candidates));
  }
}
BENCHMARK(BM_IndexedBatchGain)->Arg(1)->Arg(2)->Arg(4);

void BM_IndexedGainVector(benchmark::State& state) {
  TppInstance inst = MakeArenasInstance(MotifKind::kRectangle, 20);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  auto candidates =
      engine.Candidates(core::CandidateScope::kTargetSubgraphEdges);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.GainVector(candidates[i++ % candidates.size()]));
  }
}
BENCHMARK(BM_IndexedGainVector);

void BM_NaiveGainVector(benchmark::State& state) {
  TppInstance inst = MakeArenasInstance(MotifKind::kRectangle, 20);
  NaiveEngine engine(inst);
  auto candidates =
      engine.Candidates(core::CandidateScope::kTargetSubgraphEdges);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.GainVector(candidates[i++ % candidates.size()]));
  }
}
BENCHMARK(BM_NaiveGainVector);

void BM_SgbGreedyFullProtection(benchmark::State& state) {
  MotifKind kind = static_cast<MotifKind>(state.range(0));
  TppInstance inst = MakeArenasInstance(kind, 20);
  for (auto _ : state) {
    IndexedEngine engine = *IndexedEngine::Create(inst);
    core::GreedyOptions opts;
    opts.scope = core::CandidateScope::kTargetSubgraphEdges;
    benchmark::DoNotOptimize(core::FullProtection(engine, opts).ok());
  }
}
BENCHMARK(BM_SgbGreedyFullProtection)->Arg(0)->Arg(1)->Arg(2);

void BM_BfsSweep(benchmark::State& state) {
  const Graph& g = ArenasGraph();
  graph::NodeId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::BfsDistances(g, source));
    source = (source + 97) % g.NumNodes();
  }
}
BENCHMARK(BM_BfsSweep);

void BM_AverageClustering(benchmark::State& state) {
  const Graph& g = ArenasGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::AverageClustering(g));
  }
}
BENCHMARK(BM_AverageClustering);

void BM_CoreNumbers(benchmark::State& state) {
  const Graph& g = ArenasGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::CoreNumbers(g));
  }
}
BENCHMARK(BM_CoreNumbers);

void BM_Louvain(benchmark::State& state) {
  const Graph& g = ArenasGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(community::Louvain(g).ok());
  }
}
BENCHMARK(BM_Louvain);

void BM_LanczosSecondEigenvalue(benchmark::State& state) {
  const Graph& g = ArenasGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::SecondLargestLaplacianEigenvalue(g).ok());
  }
}
BENCHMARK(BM_LanczosSecondEigenvalue);

void BM_GraphCopyAndDelete(benchmark::State& state) {
  const Graph& g = ArenasGraph();
  auto edges = g.Edges();
  for (auto _ : state) {
    Graph copy = g;
    for (size_t i = 0; i < 25; ++i) {
      (void)copy.RemoveEdge(edges[i * 7].u, edges[i * 7].v);
    }
    benchmark::DoNotOptimize(copy.NumEdges());
  }
}
BENCHMARK(BM_GraphCopyAndDelete);

// Sampling k=10 targets from the 95k-node graph servebench's dblp
// workloads serve: Arg(0) the one-shot SampleTargets (builds an
// EdgeRankIndex per call, one pass over every adjacency list), Arg(1) a
// held index, as PlanService keeps one.
void BM_SampleTargets(benchmark::State& state) {
  static const Graph* graph = new Graph(*graph::MakeDblpLike(2020, 0.3));
  const Graph& g = *graph;
  const bool held = state.range(0) == 1;
  const core::EdgeRankIndex index(g);
  Rng rng(11);
  for (auto _ : state) {
    auto targets = held ? index.Sample(g, 10, rng)
                        : core::SampleTargets(g, 10, rng);
    benchmark::DoNotOptimize(targets->data());
  }
}
BENCHMARK(BM_SampleTargets)->Arg(0)->Arg(1);

}  // namespace
}  // namespace tpp

BENCHMARK_MAIN();
