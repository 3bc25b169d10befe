#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "graph/datasets.h"

namespace servebench {

using tpp::StrFormat;
using tpp::graph::Edge;
using tpp::graph::EdgeKey;
using tpp::graph::NodeId;

namespace {

// The graphs are fixed per workload; only the request stream follows the
// seed, so run-to-run spread measures the serving path, not the graph.
constexpr uint64_t kGraphSeed = 2020;
constexpr double kDblpScale = 0.3;

const char* const kDeterministicSolvers[] = {"sgb", "ct-tbd", "ct-dbd",
                                             "wt-tbd", "wt-dbd"};

uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string LinkList(const std::vector<Edge>& edges) {
  std::string out;
  for (const Edge& e : edges) {
    if (!out.empty()) out += ';';
    out += StrFormat("%u-%u", e.u, e.v);
  }
  return out;
}

}  // namespace

// Open-loop rates sit at about 10-20% (low) and 18-35% (high) of the
// closed-loop throughput on a 4-vCPU VM: at 70% that host's speed drift
// pushed the high phase into overload from run to run.
tpp::Result<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  spec.low_share = 0.6;
  spec.high_share = 0.3;
  if (name == "arenas-solve") {
    spec.check_sample = 400;
    spec.closed_requests = 1200;
    spec.low_rps = 100;
    spec.high_rps = 175;
    spec.slo_ms = 45;
  } else if (name == "dblp-zipf") {
    spec.dblp = true;
    spec.cache_capacity = 192;
    spec.pool_groups = 32;
    spec.variants_per_group = 8;
    spec.zipf_exponent = 0.9;
    spec.sampled_share = 0.5;
    spec.check_sample = 160;
    spec.closed_requests = 3000;
    spec.low_rps = 240;
    spec.low_share = 0.55;
    spec.high_rps = 420;
    spec.slo_ms = 32;
  } else if (name == "dblp-edits") {
    spec.dblp = true;
    spec.cache_capacity = 112;
    spec.store = true;
    spec.pool_groups = 16;
    spec.variants_per_group = 8;
    spec.zipf_exponent = 0.9;
    spec.edit_every = 20;
    spec.check_sample = 160;
    // Edits are paused in the closed loop, which is then all cache and
    // store hits; the write path runs in the open-loop phases.
    spec.closed_requests = 20000;
    spec.low_rps = 90;
    spec.high_rps = 160;
    spec.slo_ms = 40;
  } else {
    return tpp::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return spec;
}

tpp::Result<tpp::graph::Graph> MakeBaseGraph(const WorkloadSpec& spec) {
  return spec.dblp ? tpp::graph::MakeDblpLike(kGraphSeed, kDblpScale)
                   : tpp::graph::MakeArenasEmailLike(kGraphSeed);
}

Generator::Generator(const WorkloadSpec& spec, uint64_t seed,
                     tpp::graph::Graph base)
    : spec_(spec), state_(HashName(spec.name)) {
  // The payload pool is fixed per workload, like the graph; the seed drives
  // the draws from it (and the edits), so runs differ in their request
  // sequence, not in what the pool contains.
  if (spec_.pool_groups > 0 || spec_.edit_every > 0) edges_ = base.Edges();
  if (spec_.pool_groups > 0) BuildPool();
  if (spec_.edit_every > 0) {
    graph_ = std::move(base);
  } else {
    edges_ = {};  // the server's graph is the only copy while serving
  }
  state_ = HashName(spec.name) ^ tpp::SplitMix64(seed);
}

uint64_t Generator::Draw() { return tpp::SplitMix64(state_++); }

double Generator::Uniform() {
  return static_cast<double>(Draw() >> 11) * 0x1.0p-53;
}

size_t Generator::Below(size_t n) {
  TPP_CHECK_GT(n, 0u);
  return static_cast<size_t>(Draw() % n);
}

void Generator::BuildPool() {
  const size_t variants = std::size(kDeterministicSolvers) * 9;
  TPP_CHECK_LE(spec_.variants_per_group, variants);
  for (size_t g = 0; g < spec_.pool_groups; ++g) {
    const double m = Uniform();
    const char* motif = m < 0.55 ? "Triangle" : m < 0.9 ? "Rectangle"
                                                        : "RecTri";
    const size_t k = 3 + Below(8);
    std::string targets;
    if (Uniform() < spec_.sampled_share) {
      targets = StrFormat("sample=%zu seed=%llu", k,
                          static_cast<unsigned long long>(Draw() >> 20));
    } else {
      std::vector<Edge> links;
      while (links.size() < k) {
        Edge e = edges_[Below(edges_.size())];
        if (!pooled_targets_.insert(e.Key()).second) continue;
        links.push_back(e);
        target_nodes_.push_back(e.u);
        target_nodes_.push_back(e.v);
      }
      targets = "links=" + LinkList(links);
    }
    // Distinct (solver, budget) variants of the group: different cache
    // keys over one shared instance build.
    std::vector<size_t> combos(variants);
    for (size_t i = 0; i < variants; ++i) combos[i] = i;
    for (size_t i = 0; i < spec_.variants_per_group; ++i) {
      std::swap(combos[i], combos[i + Below(variants - i)]);
      const char* solver =
          kDeterministicSolvers[combos[i] % std::size(kDeterministicSolvers)];
      const size_t b = combos[i] / std::size(kDeterministicSolvers);
      const std::string budget = b == 0 ? "full" : StrFormat("%zu", b);
      Payload payload;
      payload.line = StrFormat("algorithm=%s motif=%s %s budget=%s", solver,
                               motif, targets.c_str(), budget.c_str());
      payload.group = std::string(motif) + "|" + targets;
      payload.motif = motif;
      payload.solver = solver;
      pool_.push_back(std::move(payload));
    }
  }
  // Zipf popularity over a seeded permutation of the pool, so popular
  // payloads spread across groups.
  std::vector<size_t> order(pool_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[Below(i)]);
  }
  std::vector<Payload> ranked;
  ranked.reserve(pool_.size());
  for (size_t i : order) ranked.push_back(pool_[i]);
  double total = 0;
  for (size_t r = 1; r <= ranked.size(); ++r) {
    total += std::pow(static_cast<double>(r), -spec_.zipf_exponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  // Warmup() walks the pool group by group; keep that order for it and
  // the ranked copy for draws.
  pool_.swap(ranked);
  warmup_.swap(ranked);
}

std::vector<ScriptItem> Generator::Warmup() {
  std::vector<ScriptItem> items;
  for (const Payload& payload : warmup_) items.push_back(Emit(payload));
  return items;
}

ScriptItem Generator::Next() {
  // Edits at a fixed spacing: every phase of a run gets the same edit
  // count, so edit cost does not vary from seed to seed.
  if (spec_.edit_every > 0 && !edits_paused_ &&
      ++since_edit_ > spec_.edit_every) {
    since_edit_ = 0;
    return MakeEdit();
  }
  if (pool_.empty()) return MakeArenasRequest();
  const double u = Uniform();
  const size_t rank =
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin();
  return Emit(pool_[std::min(rank, pool_.size() - 1)]);
}

ScriptItem Generator::MakeArenasRequest() {
  // Every payload is distinct (unique seed => unique sampled targets), so
  // nothing is shared and every request builds and solves.
  const double m = Uniform();
  const char* motif = m < 0.3    ? "Pentagon"
                      : m < 0.55 ? "Triangle"
                      : m < 0.8  ? "Rectangle"
                                 : "RecTri";
  const bool sgb = Uniform() < 0.4;
  const char* solver = sgb ? "sgb" : kDeterministicSolvers[1 + Below(4)];
  const size_t sample = 20 + Below(81);
  const unsigned long long seed = (Draw() >> 20) ^ next_index_;
  const std::string budget =
      Uniform() < 0.25 ? "full" : StrFormat("%zu", 5 + Below(36));
  std::string line =
      StrFormat("algorithm=%s motif=%s sample=%zu seed=%llu budget=%s",
                solver, motif, sample, seed, budget.c_str());
  if (Uniform() < 0.15) line += " scope=all";
  if (sgb && Uniform() < 0.5) line += " lazy=1";
  Payload payload;
  payload.line = std::move(line);
  payload.group = StrFormat("%s|%zu|%llu", motif, sample, seed);
  payload.motif = motif;
  payload.solver = solver;
  return Emit(payload);
}

ScriptItem Generator::MakeEdit() {
  // Two operations per edit; every third edit works next to a pooled
  // target endpoint (so nearby cache entries invalidate), the others
  // anywhere. Never a pooled target link itself, so every request stays
  // valid. The fixed shape keeps edit cost alike from seed to seed.
  tpp::graph::GraphDelta delta;
  std::unordered_set<EdgeKey> used;
  auto usable = [&](NodeId u, NodeId v) {
    if (u == v) return false;
    const EdgeKey key = tpp::graph::MakeEdgeKey(u, v);
    return !pooled_targets_.contains(key) && !used.contains(key);
  };
  const bool near = props_.edits % 3 == 0 && !target_nodes_.empty();
  for (size_t op = 0, attempts = 0; op < 2 && attempts < 1000; ++attempts) {
    const double kind = Uniform();
    if (kind < 0.45 && !removed_.empty()) {
      // Put back an edge an earlier edit removed.
      const size_t i = Below(removed_.size());
      const Edge e = removed_[i];
      if (!usable(e.u, e.v) || graph_.HasEdge(e.u, e.v)) continue;
      removed_[i] = removed_.back();
      removed_.pop_back();
      delta.inserted.push_back(e);
      used.insert(e.Key());
    } else if (kind < 0.85) {
      Edge e = edges_[Below(edges_.size())];
      if (near) {
        const NodeId x = target_nodes_[Below(target_nodes_.size())];
        const auto nbrs = graph_.Neighbors(x);
        if (nbrs.empty()) continue;
        e = Edge(x, nbrs[Below(nbrs.size())]);
      }
      if (!usable(e.u, e.v) || !graph_.HasEdge(e.u, e.v)) continue;
      delta.removed.push_back(e);
      removed_.push_back(e);
      used.insert(e.Key());
    } else {
      const NodeId u = near ? target_nodes_[Below(target_nodes_.size())]
                            : static_cast<NodeId>(Below(graph_.NumNodes()));
      const NodeId v = static_cast<NodeId>(Below(graph_.NumNodes()));
      if (!usable(u, v) || graph_.HasEdge(u, v)) continue;
      delta.inserted.push_back(Edge(u, v));
      used.insert(tpp::graph::MakeEdgeKey(u, v));
    }
    ++op;
  }
  auto canonicalize = [](std::vector<Edge>* edges) {
    for (Edge& e : *edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(edges->begin(), edges->end(),
              [](const Edge& a, const Edge& b) { return a.Key() < b.Key(); });
  };
  canonicalize(&delta.inserted);
  canonicalize(&delta.removed);
  TPP_CHECK(graph_.ApplyDelta(delta).ok());
  std::string line = "edit";
  if (!delta.inserted.empty()) line += " insert=" + LinkList(delta.inserted);
  if (!delta.removed.empty()) line += " remove=" + LinkList(delta.removed);
  ++props_.edits;
  return ScriptItem{true, std::move(line)};
}

ScriptItem Generator::Emit(const Payload& payload) {
  ++next_index_;
  ++props_.requests;
  if (!seen_.insert(payload.line).second) ++props_.repeats;
  props_.groups.insert(payload.group);
  ++props_.motif_mix[payload.motif];
  ++props_.solver_mix[payload.solver];
  return ScriptItem{false, payload.line};
}

}  // namespace servebench
