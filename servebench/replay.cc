#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "core/report.h"
#include "core/solver.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/server/framing.h"
#include "service/server/server.h"
#include "service/store/plan_codec.h"
#include "service/store/warm_store.h"

namespace servebench {

using tpp::Result;
using tpp::Status;
using tpp::StrFormat;
namespace service = tpp::service;

uint32_t Tracer::NameId(const char* name) {
  auto it = ids_.find(std::string_view(name));
  if (it == ids_.end()) {
    it = ids_.emplace(name, static_cast<uint32_t>(names_.size())).first;
    names_.emplace_back(name);
  }
  return it->second;
}

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t request) {
  Span& span = spans_.emplace_back();
  span.name = NameId(name);
  span.parent = parent;
  span.request = request;
  span.start = NowSeconds();
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) { spans_[id - 1].end = NowSeconds(); }

void Tracer::Rename(uint32_t id, const char* name) {
  spans_[id - 1].name = NameId(name);
}

Status Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "id\tparent\trequest\tname\tstart_s\tend_s\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%llu\t%s\t%.9f\t%.9f\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.request),
                 names_[s.name].c_str(), s.start, s.end);
  }
  return std::fclose(f) == 0 ? Status::Ok()
                             : Status::IoError("cannot write " + path);
}

namespace {

// Runs `fn` inside a span.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, uint32_t parent,
            uint64_t request, Fn&& fn) {
  const uint32_t id = tracer->Begin(name, parent, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer->End(id);
  } else {
    auto result = fn();
    tracer->End(id);
    return result;
  }
}

// What recording one span costs: a Begin/End pair on a scratch tracer,
// timed over many pairs.
double SpanCostSeconds() {
  constexpr uint32_t kPairs = 200'000;
  Tracer scratch;
  const uint32_t root = scratch.Begin("batch", 0, 0);
  const double start = NowSeconds();
  for (uint32_t i = 0; i < kPairs; ++i) {
    scratch.End(scratch.Begin("pipeline.parse", root, i));
  }
  return (NowSeconds() - start) / kPairs;
}

struct Unit {
  size_t pos = 0;  ///< position within the batch
  tpp::Rng rng{0};
  size_t group = 0;
};

}  // namespace

std::string EditReplyLine(const service::EditSummary& summary) {
  return StrFormat("edit ok inserted=%zu removed=%zu fingerprint=%016llx",
                   summary.inserted, summary.removed,
                   static_cast<unsigned long long>(summary.new_fingerprint));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

Result<ReplayResult> Replay(const ReplayInput& input, Tracer* tracer) {
  const WorkloadSpec& spec = *input.spec;
  const std::vector<SentItem>& items = *input.items;
  ReplayResult out;
  auto& m = out.metrics;

  // -- Serving state, as the server was set up.
  Result<tpp::graph::Graph> loaded = Traced(
      tracer, "graph.load", 0, 0,
      [&] { return tpp::graph::LoadEdgeList(input.graph_path); });
  if (!loaded.ok()) return loaded.status();
  Traced(tracer, "graph.fingerprint", 0, 0,
         [&] { return tpp::graph::Fingerprint(*loaded); });
  service::PlanService plan_service(std::move(*loaded));
  std::unique_ptr<service::store::WarmStore> store;
  std::unique_ptr<service::store::WarmStore> side_store;
  if (spec.store) {
    auto opened = Traced(tracer, "store.open", 0, 0, [&] {
      return service::store::WarmStore::Open(input.store_dir);
    });
    if (!opened.ok()) return opened.status();
    store = std::move(*opened);
    auto side = service::store::WarmStore::Open(input.side_store_dir);
    if (!side.ok()) return side.status();
    side_store = std::move(*side);
  }
  std::unique_ptr<service::PlanCache> cache;
  if (spec.cache_capacity > 0) {
    cache = std::make_unique<service::PlanCache>(spec.cache_capacity);
    cache->set_backing_store(store.get());
  }
  service::InstanceRepository repository(&plan_service.base());
  repository.set_build_threads(input.max_workers);

  std::vector<size_t> edits;  // script indices of edits, in send order
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_edit) edits.push_back(i);
  }
  size_t edits_applied = 0;
  service::EditSummary edit_totals;
  auto apply_edits_through = [&](uint64_t epoch) -> Status {
    while (edits_applied < std::min<size_t>(epoch, edits.size())) {
      const SentItem& edit = items[edits[edits_applied]];
      Result<tpp::graph::GraphDelta> delta =
          service::ParseEditLine(edit.line, 1);
      if (!delta.ok()) return delta.status();
      Result<service::EditSummary> summary =
          Traced(tracer, "edit.apply", 0, edits[edits_applied], [&] {
            return plan_service.ApplyEdit(*delta, cache.get(), &repository);
          });
      if (!summary.ok()) return summary.status();
      edit_totals.groups_repaired += summary->groups_repaired;
      edit_totals.groups_reset += summary->groups_reset;
      edit_totals.cache_rekeyed += summary->cache_rekeyed;
      edit_totals.cache_invalidated += summary->cache_invalidated;
      const std::string line = EditReplyLine(*summary);
      if (ReplyHash(line) != edit.reply_hash && out.mismatches++ == 0) {
        out.first_mismatch =
            "edit: replayed '" + line + "', the served reply differs";
      }
      ++edits_applied;
    }
    return Status::Ok();
  };

  // -- Batches in pickup order.
  const std::vector<Pickup>& pickups = *input.pickups;
  uint64_t gain_evals = 0;
  uint64_t protectors = 0;
  size_t dedup_shared = 0;
  size_t batches = 0;
  for (size_t begin = 0; begin < pickups.size();) {
    size_t end = begin;
    while (end < pickups.size() && pickups[end].batch == pickups[begin].batch) {
      ++end;
    }
    TPP_RETURN_IF_ERROR(apply_edits_through(pickups[begin].epoch));
    ++batches;
    const size_t n = end - begin;
    const uint32_t root =
        tracer->Begin("batch", 0, pickups[begin].item);
    std::vector<service::PlanRequest> requests(n);
    std::vector<std::string> keys(n);
    std::vector<size_t> rep(n);
    std::vector<service::PlanResponse> responses(n);
    std::unordered_map<std::string_view, size_t> first;
    std::vector<Unit> units;
    for (size_t k = 0; k < n; ++k) {
      const size_t index = pickups[begin + k].item;
      const std::string wire =
          items[index].line + StrFormat(" name=q%zu", index);
      Result<service::PlanRequest> parsed =
          Traced(tracer, "pipeline.parse", root, index, [&] {
            return service::ParsePlanRequestLine(wire, 1, 0);
          });
      if (!parsed.ok()) return parsed.status();
      requests[k] = std::move(*parsed);
    }
    for (size_t k = 0; k < n; ++k) {
      keys[k] = Traced(tracer, "pipeline.key", root, pickups[begin + k].item,
                       [&] {
                         return service::CanonicalRequestKey(
                             plan_service.fingerprint(), requests[k]);
                       });
    }
    for (size_t k = 0; k < n; ++k) {
      auto [it, inserted] = first.try_emplace(keys[k], k);
      rep[k] = it->second;
      if (!inserted) ++dedup_shared;
    }
    if (store != nullptr) repository.set_store(store.get(),
                                               plan_service.fingerprint());
    for (size_t k = 0; k < n; ++k) {
      if (rep[k] != k) continue;
      const size_t index = pickups[begin + k].item;
      if (cache != nullptr &&
          Traced(tracer, "cache.lookup", root, index,
                 [&] { return cache->Lookup(keys[k], &responses[k]); })) {
        continue;
      }
      Unit unit;
      unit.pos = k;
      unit.rng = service::RequestRng(requests[k].seed);
      service::PlanResponse& response = responses[k];
      if (requests[k].targets.empty()) {
        Result<std::vector<tpp::graph::Edge>> sampled =
            Traced(tracer, "core.sample_targets", root, index, [&] {
              return tpp::core::SampleTargets(plan_service.base(),
                                              requests[k].sample, unit.rng);
            });
        if (!sampled.ok()) return sampled.status();
        response.targets = std::move(*sampled);
      } else {
        response.targets = requests[k].targets;
      }
      unit.group = repository.Intern(response.targets, requests[k].motif);
      units.push_back(std::move(unit));
    }
    // (batch position, script index) of units whose acquire built a group
    std::vector<std::pair<size_t, size_t>> built;
    for (Unit& unit : units) {
      const size_t k = unit.pos;
      const size_t index = pickups[begin + k].item;
      const service::PlanRequest& request = requests[k];
      service::PlanResponse& response = responses[k];
      const size_t builds_before = repository.NumBuilds();
      const uint32_t acquire = tracer->Begin("repo.acquire", root, index);
      std::optional<Result<tpp::core::IndexedEngine>> engine(
          repository.AcquireEngine(unit.group));
      tracer->End(acquire);
      if (repository.NumBuilds() != builds_before) {
        built.emplace_back(unit.pos, index);
        tracer->Rename(acquire, "repo.acquire_build");
      } else {
        tracer->Rename(acquire, "repo.acquire_clone");
      }
      if (!engine->ok()) {
        response.status = engine->status();
      } else {
        const tpp::core::TppInstance& instance =
            repository.instance(unit.group);
        Result<tpp::core::ProtectionResult> result =
            Traced(tracer, "core.solve", root, index, [&] {
              return tpp::core::RunSolver(request.spec, **engine, instance,
                                          unit.rng);
            });
        if (!result.ok()) {
          response.status = result.status();
        } else {
          response.result = std::move(*result);
          gain_evals += response.result.gain_evaluations;
          protectors += response.result.protectors.size();
          response.plan_text =
              Traced(tracer, "core.serialize", root, index, [&] {
                return tpp::core::SerializeDeletionPlan(instance,
                                                        response.result);
              });
        }
      }
      // The private clone is graph-sized; freeing it is part of the unit.
      Traced(tracer, "core.engine_release", root, index,
             [&] { engine.reset(); });
      if (cache != nullptr) {
        Traced(tracer, "cache.insert", root, index,
               [&] { cache->Insert(keys[k], response); });
      }
    }
    for (size_t k = 0; k < n; ++k) {
      const size_t index = pickups[begin + k].item;
      const std::string line =
          Traced(tracer, "server.format", root, index, [&] {
            return service::server::FormatResponseLine(requests[k],
                                                       responses[rep[k]]);
          });
      if (ReplyHash(line) != items[index].reply_hash &&
          out.mismatches++ == 0) {
        out.first_mismatch =
            "replayed '" + line + "', the served reply differs";
      }
    }
    tracer->End(root);

    // Cold-path breakdowns, outside the batch span.
    for (const auto& [k, index] : built) {
      const service::PlanRequest& request = requests[k];
      const service::PlanResponse& response = responses[k];
      Traced(tracer, "graph.copy", 0, index,
             [&] { return tpp::graph::Graph(plan_service.base()); });
      Result<tpp::core::TppInstance> instance =
          Traced(tracer, "core.make_instance", 0, index, [&] {
            return tpp::core::MakeInstance(plan_service.base(),
                                           response.targets, request.motif);
          });
      if (!instance.ok()) continue;
      tpp::motif::IncidenceIndex::BuildOptions options;
      options.threads = input.max_workers;
      tpp::motif::IncidenceIndex::BuildStats build_stats;
      Result<tpp::core::IndexedEngine> engine =
          Traced(tracer, "core.engine_create", 0, index, [&] {
            return tpp::core::IndexedEngine::Create(*instance, options,
                                                    &build_stats);
          });
      if (!engine.ok()) continue;
      m["motif.index_instances"] += static_cast<double>(build_stats.instances);
      m["motif.interned_edges"] +=
          static_cast<double>(build_stats.interned_edges);
      Traced(tracer, "core.engine_clone", 0, index,
             [&] { return engine->Clone(); });
      if (side_store != nullptr) {
        tpp::motif::IndexSnapshotMeta meta;
        meta.graph_fingerprint = plan_service.fingerprint();
        meta.target_hash = tpp::graph::TargetSetHash(instance->targets);
        meta.motif = instance->motif;
        meta.num_targets = static_cast<uint32_t>(instance->targets.size());
        TPP_RETURN_IF_ERROR(Traced(tracer, "store.save_index", 0, index, [&] {
          return side_store->SaveIndex(std::as_const(*engine).index(), meta);
        }));
        Result<tpp::motif::IncidenceIndex> reloaded =
            Traced(tracer, "store.load_index", 0, index,
                   [&] { return side_store->LoadIndex(meta); });
        if (!reloaded.ok()) return reloaded.status();
      }
    }
    if (side_store != nullptr) {
      for (const Unit& unit : units) {
        const service::PlanResponse& response = responses[unit.pos];
        if (!response.status.ok()) continue;
        const size_t index = pickups[begin + unit.pos].item;
        const std::string payload =
            service::store::EncodePlanResponse(response);
        TPP_RETURN_IF_ERROR(Traced(tracer, "store.append_plan", 0, index, [&] {
          return side_store->AppendPlan(keys[unit.pos], payload);
        }));
        std::string loaded_payload;
        if (!Traced(tracer, "store.load_plan", 0, index, [&] {
              return side_store->LoadPlan(keys[unit.pos], &loaded_payload);
            })) {
          return Status::Internal("appended plan did not load back");
        }
      }
    }
    begin = end;
  }
  TPP_RETURN_IF_ERROR(apply_edits_through(edits.size()));

  // -- Framing: the served wire bytes through one LineAssembler, in
  // socket-read-sized chunks.
  std::string wire;
  size_t lines = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].line.empty()) continue;
    wire += items[i].line;
    if (!items[i].is_edit) wire += StrFormat(" name=q%zu", i);
    wire += '\n';
    ++lines;
  }
  {
    tpp::service::server::LineAssembler assembler;
    const double start = NowSeconds();
    size_t framed = 0;
    for (size_t pos = 0; pos < wire.size(); pos += 4096) {
      framed += assembler
                    .Feed(std::string_view(wire).substr(pos, 4096))
                    .size();
    }
    const double elapsed = NowSeconds() - start;
    if (framed != lines) {
      return Status::Internal("framing lost lines in the replay");
    }
    m["framing.feed_ns_per_line"] =
        lines == 0 ? 0 : elapsed * 1e9 / static_cast<double>(lines);
  }

  // -- Aggregate spans by name.
  const auto& spans = tracer->spans();
  const auto& names = tracer->names();
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans) {
    durations[names[s.name]].push_back(s.end - s.start);
  }
  auto mean = [&](const char* name, double scale) {
    const std::vector<double>& d = durations[name];
    double total = 0;
    for (double x : d) total += x;
    return d.empty() ? 0.0 : total / static_cast<double>(d.size()) * scale;
  };
  m["graph.load_ms"] = mean("graph.load", 1e3);
  m["graph.fingerprint_ms"] = mean("graph.fingerprint", 1e3);
  m["graph.copy_ms"] = mean("graph.copy", 1e3);
  m["core.sample_targets_ms"] = mean("core.sample_targets", 1e3);
  m["core.make_instance_ms"] = mean("core.make_instance", 1e3);
  m["core.engine_create_ms"] = mean("core.engine_create", 1e3);
  m["core.engine_clone_ms"] = mean("core.engine_clone", 1e3);
  m["core.engine_release_ms"] = mean("core.engine_release", 1e3);
  const double creates =
      static_cast<double>(durations["core.engine_create"].size());
  if (creates > 0) {
    m["motif.index_instances"] /= creates;
    m["motif.interned_edges"] /= creates;
  } else {
    m["motif.index_instances"] = 0;
    m["motif.interned_edges"] = 0;
  }
  m["core.solve_p50_ms"] = Percentile(durations["core.solve"], 0.5) * 1e3;
  m["core.solve_p99_ms"] = Percentile(durations["core.solve"], 0.99) * 1e3;
  m["core.solves"] = static_cast<double>(durations["core.solve"].size());
  m["core.gain_evals"] = static_cast<double>(gain_evals);
  m["core.protectors"] = static_cast<double>(protectors);
  m["core.serialize_us"] = mean("core.serialize", 1e6);
  m["server.format_us"] = mean("server.format", 1e6);
  m["pipeline.parse_us"] = mean("pipeline.parse", 1e6);
  m["pipeline.key_us"] = mean("pipeline.key", 1e6);
  m["pipeline.dedup_shared"] = static_cast<double>(dedup_shared);
  m["pipeline.batch_size_mean"] =
      batches == 0 ? 0
                   : static_cast<double>(pickups.size()) /
                         static_cast<double>(batches);
  m["cache.lookup_us"] = mean("cache.lookup", 1e6);
  m["repo.acquire_build_ms"] = mean("repo.acquire_build", 1e3);
  m["repo.acquire_clone_ms"] = mean("repo.acquire_clone", 1e3);
  m["edit.apply_p50_ms"] = Percentile(durations["edit.apply"], 0.5) * 1e3;
  // About 120 edits a run: p90 is the highest percentile with ten samples
  // beyond it.
  m["edit.apply_p90_ms"] = Percentile(durations["edit.apply"], 0.9) * 1e3;
  m["edit.groups_repaired"] = static_cast<double>(edit_totals.groups_repaired);
  m["edit.groups_reset"] = static_cast<double>(edit_totals.groups_reset);
  m["edit.cache_rekeyed"] = static_cast<double>(edit_totals.cache_rekeyed);
  m["edit.cache_invalidated"] =
      static_cast<double>(edit_totals.cache_invalidated);
  m["store.open_ms"] = mean("store.open", 1e3);
  m["store.save_index_ms"] = mean("store.save_index", 1e3);
  m["store.load_index_ms"] = mean("store.load_index", 1e3);
  m["store.append_plan_us"] = mean("store.append_plan", 1e6);
  m["store.load_plan_us"] = mean("store.load_plan", 1e6);

  // Coverage: the time the batch spans' stage children cover over the
  // batch spans themselves (stages do not nest, so a child's duration is
  // its self time).
  double batch_total = 0;
  double staged = 0;
  size_t batch_spans = 0;  // batch spans and their children
  const uint32_t batch_name = [&] {
    for (uint32_t i = 0; i < names.size(); ++i) {
      if (names[i] == "batch") return i;
    }
    return UINT32_MAX;
  }();
  for (const Span& s : spans) {
    if (s.name == batch_name) {
      batch_total += s.end - s.start;
      ++batch_spans;
    } else if (s.parent != 0 && spans[s.parent - 1].name == batch_name) {
      staged += s.end - s.start;
      ++batch_spans;
    }
  }
  m["trace.coverage"] = batch_total > 0 ? staged / batch_total : 0;
  // Overhead: the batches' spans times the cost of one, over the batch time
  // without them. (Replaying twice, with and without spans, and comparing
  // was tried: the difference between two replays on a shared VM is ten
  // times the spans' cost.)
  const double span_cost =
      static_cast<double>(batch_spans) * SpanCostSeconds();
  m["trace.overhead"] =
      batch_total > span_cost ? span_cost / (batch_total - span_cost) : 0;
  return out;
}

}  // namespace servebench
