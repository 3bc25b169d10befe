// Seeded request streams for the serving benchmark.
//
// A workload is a fixed server configuration, a load shape and a request
// generator (the table in workload.cc; README.md says why each exists).
// The generator is a pure function of (workload, seed, base graph): the
// same inputs give the same byte stream of script lines, in the
// batch-script grammar `tpp serve` speaks (docs/SERVICE.md). Request lines
// carry no `name=` token; the load generator appends a unique one at send
// time, and names are not part of the plan-cache key.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace servebench {

/// Static description of one workload: graph, server wiring, load shape,
/// request mix.
struct WorkloadSpec {
  std::string name;
  bool dblp = false;          ///< DBLP-like (scale 0.3) vs Arenas-email-like
  size_t cache_capacity = 0;  ///< plan-cache entries; 0 = no plan cache
  bool store = false;         ///< warm store in a fresh per-run directory
  size_t pool_groups = 0;     ///< distinct (targets, motif) groups in the pool
  size_t variants_per_group = 0;  ///< payloads per group
  double zipf_exponent = 0;
  double sampled_share = 0;   ///< share of pool groups with sample= targets
  size_t edit_every = 0;      ///< requests between edits; 0 = no edits
  size_t check_sample = 0;    ///< response groups verified against RunOne
  // Load shape: a closed loop of a fixed request count, then the `low` and
  // `high` open-loop phases, each at a fixed rate for a fixed share of the
  // run's seconds.
  size_t closed_requests = 0;
  double low_rps = 0;
  double low_share = 0;
  double high_rps = 0;
  double high_share = 0;
  double slo_ms = 0;  ///< latency limit for high.slo_frac
};

/// The workload table; an unknown name is an error.
tpp::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// Builds the workload's base graph (fixed generator seed, independent of
/// the stream seed, so runs differ only in their requests).
tpp::Result<tpp::graph::Graph> MakeBaseGraph(const WorkloadSpec& spec);

struct ScriptItem {
  bool is_edit = false;
  std::string line;  ///< request payload without name=, or an edit line
};

/// Measured properties of the items generated so far; every ratio is
/// reported with its base.
struct StreamProperties {
  size_t requests = 0;
  size_t edits = 0;
  size_t repeats = 0;  ///< requests whose payload appeared before
  std::unordered_set<std::string> groups;  ///< distinct target-set+motif ids
  std::map<std::string, size_t> motif_mix;
  std::map<std::string, size_t> solver_mix;
};

class Generator {
 public:
  /// `base` must be the graph the server loads (node ids as served). The
  /// generator keeps it only when the workload edits.
  Generator(const WorkloadSpec& spec, uint64_t seed, tpp::graph::Graph base);

  /// Untimed warm-up: every pool payload once, group by group, so group
  /// builds and first solves happen before measurement and the timed
  /// phases see the cache's steady state. Empty without a pool.
  std::vector<ScriptItem> Warmup();

  /// The next item of the endless stream.
  ScriptItem Next();

  /// While paused, Next() yields requests only; the edit spacing resumes
  /// where it stopped. The closed loop runs paused: it measures read
  /// capacity, and edit cost (an fsync per repaired group with a store)
  /// would otherwise make it track the host disk.
  void PauseEdits(bool paused) { edits_paused_ = paused; }

  const StreamProperties& properties() const { return props_; }

 private:
  struct Payload {
    std::string line;
    std::string group;  ///< group id for the distinct-groups count
    std::string motif;
    std::string solver;
  };

  uint64_t Draw();              ///< next raw 64-bit value
  double Uniform();             ///< [0, 1)
  size_t Below(size_t n);       ///< [0, n)
  void BuildPool();
  ScriptItem MakeArenasRequest();
  ScriptItem MakeEdit();
  ScriptItem Emit(const Payload& payload);

  WorkloadSpec spec_;
  uint64_t state_;
  tpp::graph::Graph graph_;  ///< tracked current graph (edits only)
  std::vector<tpp::graph::Edge> edges_;  ///< base edges (pool, edits)
  std::vector<Payload> pool_;     ///< ranked by popularity (rank 0 first)
  std::vector<Payload> warmup_;   ///< group-major order
  std::vector<double> zipf_cdf_;
  std::unordered_set<tpp::graph::EdgeKey> pooled_targets_;
  std::vector<tpp::graph::NodeId> target_nodes_;
  std::vector<tpp::graph::Edge> removed_;  ///< edges edits took out
  uint64_t next_index_ = 0;
  size_t since_edit_ = 0;  ///< requests since the last edit
  bool edits_paused_ = false;
  std::unordered_set<std::string> seen_;
  StreamProperties props_;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
