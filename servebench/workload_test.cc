// Tests of the seeded workload generator: determinism, grammar validity,
// and edit validity against the tracked graph.
//
//   ctest --test-dir .bench_build/servebench   (or run workload_test)

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/strings.h"
#include "graph/graph.h"
#include "service/plan_service.h"
#include "workload.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(cond, ...)                                         \
  do {                                                            \
    if (!(cond)) {                                                \
      ++::servebench::failures;                                   \
      std::fprintf(stderr, "FAIL %s:%d: %s: ", __FILE__, __LINE__, \
                   #cond);                                        \
      std::fprintf(stderr, __VA_ARGS__);                          \
      std::fprintf(stderr, "\n");                                 \
    }                                                             \
  } while (0)

constexpr size_t kItems = 3000;

std::vector<ScriptItem> Script(const WorkloadSpec& spec, uint64_t seed,
                               const tpp::graph::Graph& base) {
  Generator generator(spec, seed, base);
  std::vector<ScriptItem> items = generator.Warmup();
  for (size_t i = 0; i < kItems; ++i) items.push_back(generator.Next());
  return items;
}

std::string Bytes(const std::vector<ScriptItem>& items) {
  std::string out;
  for (const ScriptItem& item : items) out += item.line + "\n";
  return out;
}

void TestWorkload(const std::string& name) {
  tpp::Result<WorkloadSpec> spec = FindWorkload(name);
  EXPECT(spec.ok(), "%s", name.c_str());
  if (!spec.ok()) return;
  EXPECT(spec->closed_requests > 0 && spec->slo_ms > 0 &&
             spec->low_rps > 0 && spec->low_rps < spec->high_rps &&
             spec->low_share > 0 && spec->high_share > 0 &&
             spec->low_share + spec->high_share <= 1,
         "%s: load shape", name.c_str());
  tpp::Result<tpp::graph::Graph> base = MakeBaseGraph(*spec);
  EXPECT(base.ok(), "%s", name.c_str());
  if (!base.ok()) return;

  const std::vector<ScriptItem> a = Script(*spec, 7, *base);
  EXPECT(Bytes(a) == Bytes(Script(*spec, 7, *base)),
         "%s: same seed, different script", name.c_str());
  EXPECT(Bytes(a) != Bytes(Script(*spec, 8, *base)),
         "%s: different seeds, same script", name.c_str());

  // Every pooled target link appears in the warm-up (every pool payload
  // once), so collecting links from the whole script covers the pool.
  std::unordered_set<tpp::graph::EdgeKey> targets;
  std::vector<tpp::service::PlanRequest> requests(a.size());
  std::unordered_set<std::string> payloads;
  size_t request_count = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_edit) continue;
    ++request_count;
    payloads.insert(a[i].line);
    tpp::Result<tpp::service::PlanRequest> parsed =
        tpp::service::ParsePlanRequestLine(
            a[i].line + tpp::StrFormat(" name=q%zu", i), 1, 0);
    EXPECT(parsed.ok(), "%s: '%s': %s", name.c_str(), a[i].line.c_str(),
           parsed.status().ToString().c_str());
    if (!parsed.ok()) continue;
    for (const tpp::graph::Edge& e : parsed->targets) targets.insert(e.Key());
    requests[i] = std::move(*parsed);
  }
  if (!spec->dblp) {
    EXPECT(payloads.size() == request_count,
           "%s: %zu distinct payloads of %zu", name.c_str(), payloads.size(),
           request_count);
  }

  tpp::graph::Graph graph = *base;
  size_t edits = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].is_edit) {
      for (const tpp::graph::Edge& e : requests[i].targets) {
        EXPECT(graph.HasEdge(e.u, e.v), "%s: target %u-%u missing at item %zu",
               name.c_str(), e.u, e.v, i);
      }
      continue;
    }
    ++edits;
    tpp::Result<tpp::graph::GraphDelta> delta =
        tpp::service::ParseEditLine(a[i].line, 1);
    EXPECT(delta.ok(), "%s: '%s'", name.c_str(), a[i].line.c_str());
    if (!delta.ok()) continue;
    for (const auto* list : {&delta->inserted, &delta->removed}) {
      for (const tpp::graph::Edge& e : *list) {
        EXPECT(!targets.contains(e.Key()), "%s: edit touches target %u-%u",
               name.c_str(), e.u, e.v);
      }
    }
    EXPECT(graph.ApplyDelta(*delta).ok(), "%s: invalid edit '%s'",
           name.c_str(), a[i].line.c_str());
  }
  EXPECT((edits > 0) == (spec->edit_every > 0), "%s: %zu edits", name.c_str(),
         edits);
  Generator paused(*spec, 7, *base);
  paused.PauseEdits(true);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT(!paused.Next().is_edit, "%s: edit while paused", name.c_str());
  }
  std::printf("%s: %zu requests, %zu distinct payloads, %zu edits\n",
              name.c_str(), request_count, payloads.size(), edits);
}

}  // namespace
}  // namespace servebench

int main() {
  for (const char* name : {"arenas-solve", "dblp-zipf", "dblp-edits"}) {
    servebench::TestWorkload(name);
  }
  EXPECT(!servebench::FindWorkload("no-such-workload").ok(), "unknown name");
  std::printf(servebench::failures == 0 ? "PASS\n" : "FAILED\n");
  return servebench::failures == 0 ? 0 : 1;
}
