// InstanceRepository: build-once sharing of (targets, motif) problem
// instances within a batch.
//
// Requests naming the same resolved target list and motif would each
// rebuild the same TppInstance and CSR IncidenceIndex — the dominant
// serving cost on large graphs (a full motif enumeration per request).
// The repository interns each distinct (ordered target list, motif) pair
// into a group, builds the group's prototype IndexedEngine exactly once
// (thread-safe: the first acquirer builds, concurrent acquirers wait on
// the same per-group build mutex), and hands every request a private
// engine clone (IndexedEngine::Clone) whose committed deletions cannot
// leak across requests. The prototype owns the group's one TppInstance;
// Clone shares it, copies the index's mutable state and a private
// deletion overlay, but RESETS the incremental round session (the
// persistent gain table of Engine::BeginRound), so every request's
// solver starts its rounds from a full evaluation rather than a sibling
// request's dirty tracking.
//
// Target ORDER is part of the group identity: per-target budget division
// and plan serialization follow target positions, so reordered target
// lists are distinct instances — collapsing them would change responses.
//
// A repository lives for one RunBatch pipeline execution by default, but
// can be owned externally (BatchOptions::repository) and carried across
// batches: between batches, ApplyEdit advances every built group across a
// committed base-graph edit by repairing its prototype engine IN PLACE
// (IndexedEngine::ApplyEdit, one delta application per group —
// O(delta-neighborhood), not a re-enumeration), so churn-then-solve
// workloads never pay a cold build for untouched instances. Build errors
// (e.g. a target link absent from the base) are memoized per group so
// every member request reports the same status a standalone run would.

#ifndef TPP_SERVICE_INSTANCE_REPOSITORY_H_
#define TPP_SERVICE_INSTANCE_REPOSITORY_H_

#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/graph.h"
#include "motif/motif.h"

namespace tpp::service {

namespace store {
class WarmStore;
}  // namespace store

class InstanceRepository {
 public:
  /// `base` must outlive the repository.
  explicit InstanceRepository(const graph::Graph* base) : base_(base) {}

  /// Worker budget for each group's one-time IncidenceIndex build
  /// (<= 0: tpp::GlobalThreadCount()). The pipeline sets this to its own
  /// max_workers so a cold batch's build stage uses the same pool budget
  /// as its solve stage; nested ParallelFor keeps that safe even when the
  /// build runs inside a pool worker. Set before the first AcquireEngine.
  void set_build_threads(int threads) { build_threads_ = threads; }

  /// Attaches a warm-start store (not owned; may be nullptr to detach).
  /// With a store attached, each group's one-time build first probes the
  /// store for a snapshot keyed by (`base_fingerprint`, motif, target-set
  /// hash) and adopts it instead of building; a cold build writes its
  /// index back (best effort) so the NEXT process start is warm. A
  /// snapshot that fails validation (corrupt, version or fingerprint
  /// mismatch) warns on stderr and falls back to the cold build — never
  /// an error, never a wrong index. Set before the first AcquireEngine.
  void set_store(store::WarmStore* store, uint64_t base_fingerprint) {
    store_ = store;
    base_fingerprint_ = base_fingerprint;
  }

  InstanceRepository(const InstanceRepository&) = delete;
  InstanceRepository& operator=(const InstanceRepository&) = delete;

  /// Interns (targets, motif) and returns its group id; the same pair
  /// always returns the same id. Not thread-safe — call from the
  /// single-threaded group-by stage of the pipeline.
  size_t Intern(const std::vector<graph::Edge>& targets,
                motif::MotifKind motif);

  /// Builds the group's prototype engine on first call (thread-safe
  /// build-once) and returns a private clone. Build errors are memoized:
  /// every acquirer of a failed group gets the same status — EXCEPT
  /// cancellation/deadline failures (kAborted, kDeadlineExceeded from
  /// `cancel`, polled at the build's internal stage boundaries).
  /// Those depend on the requesting caller's clock, not the group, so the
  /// group resets to unbuilt and the next acquirer rebuilds under its own
  /// deadline.
  Result<core::IndexedEngine> AcquireEngine(
      size_t group, const CancellationToken* cancel = nullptr);

  /// The group's problem instance, the prototype's and every clone's;
  /// valid only after AcquireEngine(group) returned OK, immutable until
  /// the next ApplyEdit (safe to read concurrently).
  const core::TppInstance& instance(size_t group) const {
    return groups_[group].engine->instance();
  }

  /// Distinct (targets, motif) groups interned.
  size_t NumGroups() const { return groups_.size(); }

  /// Prototype builds performed (<= NumGroups(): only acquired groups
  /// build).
  size_t NumBuilds() const {
    return builds_.load(std::memory_order_relaxed);
  }

  /// Engine clones handed out; NumAcquisitions() - NumBuilds() full index
  /// builds were avoided by sharing.
  size_t NumAcquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }

  /// Builds satisfied by adopting a store snapshot (<= NumBuilds()).
  size_t NumSnapshotHits() const {
    return snapshot_hits_.load(std::memory_order_relaxed);
  }

  /// Cold builds whose index was written back to the store.
  size_t NumSnapshotStores() const {
    return snapshot_stores_.load(std::memory_order_relaxed);
  }

  /// Advances every group across a committed base-graph edit. The caller
  /// has already applied `delta` to the base graph this repository points
  /// at; `new_fingerprint` is the post-edit graph::Fingerprint (the key
  /// future snapshot probes and write-backs use). Per group:
  ///   * unbuilt groups are untouched — their eventual build reads the
  ///     edited base;
  ///   * groups whose TARGET links intersect the delta are reset to
  ///     unbuilt (the edit changed the problem itself, so the next
  ///     acquisition cold-builds), as are groups holding a memoized build
  ///     error (the edit may have cured it);
  ///   * every other built group is repaired in place by its prototype
  ///     engine (IndexedEngine::ApplyEdit: the delta applied once, to the
  ///     group's only released graph), after which clones answer exactly
  ///     as if the group had been cold-built on the edited base.
  ///     A repair failure degrades to a reset, never an error.
  /// Repaired indexes write back to the store (best effort) under the new
  /// fingerprint. NOT thread-safe against AcquireEngine — call between
  /// batches, exactly where PlanService::ApplyEdit sits.
  void ApplyEdit(const graph::GraphDelta& delta, uint64_t new_fingerprint);

  /// Built groups ApplyEdit repaired in place (cumulative).
  size_t NumEditRepairs() const { return edit_repairs_; }

  /// Built groups ApplyEdit reset for a cold rebuild (cumulative).
  size_t NumEditResets() const { return edit_resets_; }

 private:
  struct Group {
    std::vector<graph::Edge> targets;
    motif::MotifKind motif = motif::MotifKind::kTriangle;
    // Build-once gate; a mutex + flag rather than a once_flag so
    // ApplyEdit can RESET a group back to unbuilt.
    std::mutex build_mu;
    bool built = false;  // guarded by build_mu
    Status status = Status::Ok();
    std::optional<core::IndexedEngine> engine;  // the shared prototype
  };

  /// The build-once body: try the store, else cold-build + write back.
  void BuildGroup(Group& group, const CancellationToken* cancel);

  /// Writes the built group's index to the store (best effort).
  void SaveSnapshot(const Group& group);

  /// Returns `group` to the unbuilt state; the next acquisition rebuilds.
  static void ResetGroup(Group& group);

  const graph::Graph* base_;
  int build_threads_ = 0;
  store::WarmStore* store_ = nullptr;  // not owned
  uint64_t base_fingerprint_ = 0;
  // deque: push_back never moves existing groups, so build mutexes and
  // handed-out instance references stay valid as interning continues.
  std::deque<Group> groups_;
  std::unordered_map<std::string, size_t> ids_;
  std::atomic<size_t> builds_{0};
  std::atomic<size_t> acquisitions_{0};
  std::atomic<size_t> snapshot_hits_{0};
  std::atomic<size_t> snapshot_stores_{0};
  // Mutated only by ApplyEdit, which runs single-threaded between
  // batches; plain counters suffice.
  size_t edit_repairs_ = 0;
  size_t edit_resets_ = 0;
};

}  // namespace tpp::service

#endif  // TPP_SERVICE_INSTANCE_REPOSITORY_H_
