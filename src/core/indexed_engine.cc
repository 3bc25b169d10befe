#include "core/indexed_engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"

namespace tpp::core {

using graph::EdgeKey;

namespace {

// Below this batch size thread spawn overhead dominates the O(1) lookups.
constexpr size_t kMinEdgesPerThread = 2048;

// Row fills read a whole CSR-2 segment each, so they amortize fan-out at
// a much smaller batch than the O(1) Gain lookups do.
constexpr size_t kMinRowsPerThread = 256;

constexpr uint32_t kNoRow = motif::IncidenceIndex::kNoEdge;

}  // namespace

Result<IndexedEngine> IndexedEngine::Create(
    TppInstance instance,
    const motif::IncidenceIndex::BuildOptions& build_options,
    motif::IncidenceIndex::BuildStats* build_stats) {
  TPP_ASSIGN_OR_RETURN(motif::IncidenceIndex index,
                       motif::IncidenceIndex::Build(
                           instance.released, instance.targets,
                           instance.motif, build_options, build_stats));
  return IndexedEngine(std::move(instance), std::move(index));
}

Result<IndexedEngine> IndexedEngine::Adopt(TppInstance&& instance,
                                           motif::IncidenceIndex index) {
  if (index.NumTargets() != instance.targets.size()) {
    return Status::InvalidArgument(
        "adopted index was built over a different target count");
  }
  return IndexedEngine(std::move(instance), std::move(index));
}

IndexedEngine IndexedEngine::Clone() const {
  IndexedEngine copy(*this);
  copy.current_.reset();  // rebuilt on demand from instance_ and deleted_
  copy.gain_evals_ = 0;
  copy.table_.Reset();
  copy.session_dirty_.clear();
  copy.row_ids_ = {};
  copy.id_to_row_ = {};
  copy.session_flush_epoch_ = 0;
  return copy;
}

const graph::Graph& IndexedEngine::CurrentGraph() const {
  if (!current_.has_value()) {
    current_.emplace(instance_->released);
    for (EdgeKey e : deleted_) TPP_CHECK(current_->RemoveEdgeKey(e).ok());
  }
  return *current_;
}

void IndexedEngine::LiveEdgeKeysInto(std::vector<EdgeKey>* out) const {
  *out = instance_->released.EdgeKeys();
  if (deleted_.empty()) return;
  // Both lists are ascending and every deleted key is in the base, so one
  // merge pass drops them in place.
  auto del = deleted_.begin();
  size_t kept = 0;
  for (EdgeKey e : *out) {
    if (del != deleted_.end() && *del == e) {
      ++del;
      continue;
    }
    (*out)[kept++] = e;
  }
  out->resize(kept);
}

Status IndexedEngine::ApplyEdit(const graph::GraphDelta& delta,
                                const CancellationToken* cancel) {
  if (!deleted_.empty()) {
    return Status::FailedPrecondition(
        "ApplyEdit requires an engine without committed deletions");
  }
  // Graph first (the repair enumerates created instances on the post-edit
  // graph), index second. An instance still shared with live clones is
  // unshared first, so they keep their pre-edit instance; a repair failure
  // rolls the graph back by replaying the inverse delta, so errors leave
  // the engine's instance and index unchanged.
  if (instance_.use_count() > 1) {
    instance_ = std::make_shared<TppInstance>(*instance_);
  }
  graph::Graph& released = instance_->released;
  TPP_RETURN_IF_ERROR(released.ApplyDelta(delta));
  Status repaired = index_.ApplyGraphDelta(released, instance_->targets,
                                           instance_->motif, delta, cancel);
  if (!repaired.ok()) {
    graph::GraphDelta inverse;
    inverse.inserted = delta.removed;
    inverse.removed = delta.inserted;
    Status rollback = released.ApplyDelta(inverse);
    TPP_CHECK(rollback.ok());
    return repaired;
  }
  current_.reset();  // CurrentGraph() rebuilds it from the edited graph
  // The candidate universe and count arrays the session aliases changed
  // shape: reset, exactly as Clone does, so the next BeginRound is a full
  // evaluation against the repaired layout.
  table_.Reset();
  session_dirty_.clear();
  row_ids_ = {};
  id_to_row_ = {};
  session_flush_epoch_ = 0;
  return Status::Ok();
}

std::vector<size_t> IndexedEngine::BatchGain(std::span<const EdgeKey> edges) {
  std::vector<size_t> out(edges.size());
  // An explicit set_threads() is honored exactly (benchmarks and tests
  // exercise the parallel partition on small batches); the global default
  // only parallelizes batches big enough to amortize thread spawns.
  // One count flush up front keeps the fan-out below a pure read: every
  // worker's Gain call then sees an empty maintenance queue.
  index_.FlushDeferredCounts();
  size_t workers =
      threads_ > 0
          ? std::min(static_cast<size_t>(threads_), edges.size())
          : std::min(static_cast<size_t>(GlobalThreadCount()),
                     edges.size() / kMinEdgesPerThread);
  if (workers <= 1) {
    for (size_t i = 0; i < edges.size(); ++i) out[i] = index_.Gain(edges[i]);
    gain_evals_ += edges.size();
    return out;
  }
  // Chunked dynamic partition on the shared process pool: workers claim
  // contiguous ranges, writing disjoint slots of `out` (no synchronization
  // on reads — gain queries never mutate the index). The pool's threads
  // are created once per process, not once per sweep.
  GlobalThreadPool().ParallelFor(
      edges.size(), static_cast<int>(workers), /*grain=*/1024,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) out[i] = index_.Gain(edges[i]);
      });
  // Work accounting folds in after the parallel region: ParallelFor
  // covers all of [0, n) before returning, so the count is exactly the
  // batch size and pool workers never write unsynchronized engine state.
  gain_evals_ += edges.size();
  return out;
}

std::vector<size_t> IndexedEngine::GainVector(EdgeKey e) {
  ++gain_evals_;
  std::vector<size_t> diffs(index_.NumTargets(), 0);
  index_.AccumulateGains(e, &diffs);
  return diffs;
}

void IndexedEngine::GainVectorInto(EdgeKey e, std::span<size_t> out) {
  ++gain_evals_;
  std::fill(out.begin(), out.end(), size_t{0});
  index_.AccumulateGains(e, out);
}

void IndexedEngine::ParallelRowJob(
    size_t n, const std::function<void(size_t, size_t)>& body) {
  size_t workers = threads_ > 0
                       ? std::min(static_cast<size_t>(threads_), n)
                       : std::min(static_cast<size_t>(GlobalThreadCount()),
                                  n / kMinRowsPerThread);
  if (workers <= 1) {
    body(0, n);
    return;
  }
  GlobalThreadPool().ParallelFor(n, static_cast<int>(workers),
                                 /*grain=*/128, body);
}

void IndexedEngine::FillGainRows(std::span<const uint32_t> ids,
                                 size_t stride, uint32_t* out) {
  // One flush up front makes every row fill below a pure read of the
  // index, so the fan-out needs no synchronization: workers write
  // disjoint output rows and only read CSR-2 cells.
  index_.FlushDeferredMaintenance();
  // Blocked pass: maximal runs of consecutive ids (with consecutive
  // output rows by construction here) go through one streaming
  // ReadGainRows walk of their contiguous CSR-2 block instead of per-row
  // offset re-derivation. Whole-universe fills are one run per chunk;
  // dirty-set fills get runs wherever dirtied ids cluster.
  ParallelRowJob(ids.size(), [&](size_t begin, size_t end) {
    size_t i = begin;
    while (i < end) {
      if (ids[i] == kNoRow) {
        std::fill(out + i * stride, out + (i + 1) * stride, 0u);
        ++i;
        continue;
      }
      size_t len = 1;
      while (i + len < end && ids[i + len] == ids[i] + len) ++len;
      index_.ReadGainRows(ids[i], len, stride, out + i * stride);
      i += len;
    }
  });
}

void IndexedEngine::BatchGainVector(std::span<const EdgeKey> edges,
                                    std::vector<uint32_t>* out) {
  const size_t num_targets = index_.NumTargets();
  out->resize(edges.size() * num_targets);
  std::vector<uint32_t> ids(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    ids[i] = index_.InternedIdOf(edges[i]);
  }
  FillGainRows(ids, num_targets, out->data());
  // Work accounting folds in after the parallel region, exactly like
  // BatchGain: no pool worker writes unsynchronized engine state.
  gain_evals_ += edges.size();
}

size_t IndexedEngine::DeleteEdge(EdgeKey e) {
  auto at = std::lower_bound(deleted_.begin(), deleted_.end(), e);
  if (!instance_->released.HasEdgeKey(e) ||
      (at != deleted_.end() && *at == e)) {
    return 0;  // absent or already deleted: no-op
  }
  deleted_.insert(at, e);
  if (current_.has_value()) TPP_CHECK(current_->RemoveEdgeKey(e).ok());
  // Kill marks only; count and cell maintenance stays queued in the index
  // until the next gain read (BeginRound collects the dirty set from the
  // flush it performs then).
  return index_.DeleteEdge(e);
}

std::vector<EdgeKey> IndexedEngine::Candidates(CandidateScope scope) {
  if (scope == CandidateScope::kAllEdges) {
    std::vector<EdgeKey> out;
    LiveEdgeKeysInto(&out);
    return out;
  }
  return index_.AliveCandidateEdges();
}

void IndexedEngine::CandidatesInto(CandidateScope scope,
                                   std::vector<EdgeKey>* out) {
  if (scope == CandidateScope::kAllEdges) {
    LiveEdgeKeysInto(out);
    return;
  }
  index_.AliveCandidateEdgesInto(out);
}

void IndexedEngine::CandidateGains(CandidateScope scope,
                                   std::vector<EdgeKey>* edges,
                                   std::vector<size_t>* gains) {
  if (scope != CandidateScope::kTargetSubgraphEdges) {
    Engine::CandidateGains(scope, edges, gains);
    return;
  }
  index_.AliveCandidateGains(edges, gains);
  gain_evals_ += edges->size();
}

void IndexedEngine::InitRoundSession(CandidateScope scope, bool per_target) {
  table_.Reset();
  session_dirty_.clear();
  const size_t num_targets = index_.NumTargets();
  size_t num_rows = 0;
  if (scope == CandidateScope::kTargetSubgraphEdges) {
    // The universe is the interned edge set: row index == dense edge id,
    // so the totals span aliases the index's eagerly-maintained alive
    // counts — the restricted-scope total table needs NO per-round upkeep
    // at all. Dead candidates keep total 0 and can never win a pick.
    num_rows = index_.NumInternedEdges();
    id_to_row_ = {};
    table_.view.edges = index_.InternedEdgeKeys();
    table_.view.totals = index_.PerEdgeAliveCounts();
    row_ids_.resize(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      row_ids_[i] = static_cast<uint32_t>(i);
    }
  } else {
    // Full scope: the universe is the graph's edge set at session start
    // (a committed pick zeroes its row via the dirty set, exactly like a
    // candidate dying). Non-interned edges have no instances, hence gain
    // 0 forever and never appear in a dirty set.
    LiveEdgeKeysInto(&table_.edges);
    num_rows = table_.edges.size();
    table_.totals.resize(num_rows);
    row_ids_.assign(num_rows, kNoRow);
    id_to_row_.assign(index_.NumInternedEdges(), kNoRow);
    const std::vector<uint32_t>& counts = index_.PerEdgeAliveCounts();
    for (size_t i = 0; i < num_rows; ++i) {
      const uint32_t id = index_.InternedIdOf(table_.edges[i]);
      row_ids_[i] = id;
      if (id == kNoRow) {
        table_.totals[i] = 0;
      } else {
        table_.totals[i] = counts[id];
        id_to_row_[id] = static_cast<uint32_t>(i);
      }
    }
    table_.view.edges = table_.edges;
    table_.view.totals = table_.totals;
  }
  if (per_target) {
    table_.rows.resize(num_rows * num_targets);
    FillGainRows(row_ids_, num_targets, table_.rows.data());
    table_.view.rows = table_.rows;
    table_.view.num_targets = num_targets;
  }
  table_.active = true;
  table_.scope = scope;
  table_.per_target = per_target;
  table_.view.all_dirty = true;
  table_.view.dirty = {};
}

const RoundGains& IndexedEngine::BeginRound(CandidateScope scope,
                                            bool per_target) {
  // A count-flush epoch different from the one this session recorded
  // means some other read (Gain, BatchGain, SimilarityOf, Candidates, a
  // direct index access, ...) flushed queued kills WITHOUT dirty
  // collection since the last round — that dirty information is gone, so
  // the only correct continuation is a full re-evaluation. Sessions
  // whose rounds only interleave DeleteEdge with BeginRound (the greedy
  // loops) never trip this.
  const bool restart = !table_.active || table_.scope != scope ||
                       table_.per_target != per_target ||
                       index_.CountsFlushEpoch() != session_flush_epoch_;
  if (restart) {
    index_.FlushDeferredCounts();
    InitRoundSession(scope, per_target);
  } else {
    // Incremental round: the count flush applies everything the session's
    // deletions queued and emits exactly the dirty set — the candidates
    // whose gains changed. Everything else keeps last round's state, and
    // a session without per-target rows (SGB-style) never triggers the
    // CSR-2 half of the maintenance at all.
    session_dirty_.clear();
    index_.FlushDeferredCounts(&session_dirty_);
    std::sort(session_dirty_.begin(), session_dirty_.end());
    table_.dirty.clear();
    table_.dirty.reserve(session_dirty_.size());
    const bool full_scope = scope == CandidateScope::kAllEdges;
    const std::vector<uint32_t>& counts = index_.PerEdgeAliveCounts();
    for (uint32_t id : session_dirty_) {
      const uint32_t row = full_scope ? id_to_row_[id] : id;
      if (row == kNoRow) continue;  // dirtied edge outside the universe
      table_.dirty.push_back(row);
      if (full_scope) table_.totals[row] = counts[id];
    }
    if (per_target && !table_.dirty.empty()) {
      index_.FlushDeferredMaintenance();
      const size_t num_targets = table_.view.num_targets;
      uint32_t* rows = table_.rows.data();
      // Blocked dirty refresh: the dirty rows are sorted, and under the
      // restricted scope row == id, so consecutive dirty rows are
      // consecutive ids — one streaming ReadGainRows per run. Under the
      // full scope a run additionally requires the id column to step with
      // the rows (non-interned edges sit between universe rows), which
      // the inner extension check enforces. Dirty ids cluster naturally:
      // a killed instance dirties arity edges interned near each other.
      ParallelRowJob(table_.dirty.size(), [&](size_t begin, size_t end) {
        size_t k = begin;
        while (k < end) {
          const uint32_t row = table_.dirty[k];
          const uint32_t id = full_scope ? row_ids_[row] : row;
          size_t len = 1;
          while (k + len < end) {
            const uint32_t next_row = table_.dirty[k + len];
            if (next_row != row + len) break;
            if (full_scope && row_ids_[next_row] != id + len) break;
            ++len;
          }
          index_.ReadGainRows(id, len, num_targets,
                              rows + row * num_targets);
          k += len;
        }
      });
    }
    table_.view.dirty = table_.dirty;
    table_.view.all_dirty = false;
  }
  session_flush_epoch_ = index_.CountsFlushEpoch();
  table_.view.num_candidates =
      scope == CandidateScope::kTargetSubgraphEdges
          ? index_.NumAliveEdges()
          : instance_->released.NumEdges() - deleted_.size();
  // One evaluation per live candidate, exactly the cold sweep's count.
  gain_evals_ += table_.view.num_candidates;
  return table_.view;
}

}  // namespace tpp::core
