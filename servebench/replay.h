// Traced replay of a served script through the layers' public functions.
//
// The served run records, per request, its admission epoch and the solve
// loop's pickup batch (ServerOptions::before_pickup / on_pickup). The
// replay then rebuilds fresh serving state from the same graph file and
// walks the batches in pickup order, calling each layer the way the plan
// pipeline does — parse, canonical key, dedup, cache probe, target
// resolution, repository acquire, solve, serialize, cache fill, format —
// and applying each edit at its epoch boundary. Every call is wrapped in a
// span (name, start, end, parent, request id) recorded in memory and
// written out when the run ends. Each replayed response line must equal
// the served one.
//
// Cold-path breakdowns that the pipeline hides inside a repository build
// (graph copy, MakeInstance, IndexedEngine::Create, Clone, index snapshot
// save/load, plan append/load) are re-run once per first-time group or
// fresh plan, after the batch, as spans with no parent: they attribute
// cost without counting toward trace coverage.

#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "loadgen.h"
#include "service/plan_service.h"
#include "workload.h"

namespace servebench {

/// One item as the server's solve loop picked it up.
struct Pickup {
  size_t item = 0;     ///< index into the served script
  uint64_t epoch = 0;  ///< admission epoch (edits admitted before it)
  uint64_t batch = 0;  ///< pickup attempt that took it
  double time = 0;     ///< NowSeconds() at pickup
};

struct Span {
  uint32_t name = 0;    ///< index into Tracer::names()
  uint32_t parent = 0;  ///< span index + 1; 0 = root
  uint64_t request = 0; ///< script index (batches: first item's index)
  double start = 0;
  double end = 0;
};

class Tracer {
 public:
  /// Opens a span and returns its id (pass it as a child's parent).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);
  /// Renames a span once its outcome is known (e.g. build vs clone).
  void Rename(uint32_t id, const char* name);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes one tab-separated line per span.
  tpp::Status Write(const std::string& path) const;

 private:
  uint32_t NameId(const char* name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> ids_;
};

struct ReplayInput {
  const WorkloadSpec* spec = nullptr;
  std::string graph_path;
  std::string store_dir;       ///< fresh directory (store workloads)
  std::string side_store_dir;  ///< fresh directory for breakdown calls
  int max_workers = 2;
  const std::vector<SentItem>* items = nullptr;
  const std::vector<Pickup>* pickups = nullptr;  ///< in pickup order
};

struct ReplayResult {
  std::map<std::string, double> metrics;  ///< per-layer, by name
  size_t mismatches = 0;
  std::string first_mismatch;
};

tpp::Result<ReplayResult> Replay(const ReplayInput& input, Tracer* tracer);

/// The plan server's reply to an applied edit (server.cc's format).
std::string EditReplyLine(const tpp::service::EditSummary& summary);

/// The `q` quantile of `values` (nearest rank); 0 when empty.
double Percentile(std::vector<double> values, double q);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
