// Plan-service throughput: batches of mixed-solver protection requests
// against the Arenas fixture, executed by PlanService on the shared
// thread pool at 1/2/4/8 workers vs a plain sequential loop. Emits a
// machine-readable BENCH_service_throughput.json so the serving-path
// scaling trajectory is tracked across PRs.
//
// Every run cross-checks that the concurrent batch reproduces the
// sequential plans bit-for-bit (the service's determinism contract), so
// the bench doubles as a stress test of per-request RNG stream isolation.
//
// A second scenario models the nightly repeated-request workload: a
// batch with 50% duplicate requests run on two consecutive "nights",
// served by the staged pipeline (in-batch dedup + instance sharing +
// content-addressed PlanCache) vs uncached RunOne calls on the same
// worker count.
// Emits BENCH_plan_cache.json with the cache hit-rate and the aggregate
// speedup, and cross-checks that every cached/shared response is
// bit-identical to the uncached one.
//
// Flags: --quick (smaller batch, CI smoke mode), --requests=N,
//        --out=PATH (default BENCH_service_throughput.json),
//        --cache-out=PATH (default BENCH_plan_cache.json).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/datasets.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"

namespace tpp::bench {
namespace {

using service::PlanRequest;
using service::PlanResponse;
using service::PlanService;

// The solver mix cycled across the batch: the three greedy families, both
// budget divisions, the lazy SGB variant, and both random baselines —
// roughly what a mixed protection workload looks like.
struct MixEntry {
  const char* algorithm;
  bool lazy;
};
constexpr MixEntry kSolverMix[] = {
    {"sgb", false}, {"ct-tbd", false}, {"wt-dbd", false}, {"rdt", false},
    {"sgb", true},  {"ct-dbd", false}, {"wt-tbd", false}, {"rd", false},
};

// `heavy` (the non-quick mode) skews the mix toward Rectangle/RecTri
// motifs and larger target sets so per-request solver work dominates
// pool overhead — that is the regime the scaling numbers are about.
std::vector<PlanRequest> MakeRequests(size_t count, size_t budget,
                                      bool heavy) {
  std::vector<PlanRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const MixEntry& mix = kSolverMix[i % std::size(kSolverMix)];
    PlanRequest request;
    request.name = "q" + std::to_string(i);
    request.sample = (heavy ? 20 : 10) + (i % 3) * 5;
    if (heavy) {
      request.motif = i % 2 == 1 ? motif::MotifKind::kRectangle
                                 : motif::MotifKind::kRecTri;
    } else {
      request.motif = i % 4 == 3 ? motif::MotifKind::kRectangle
                                 : motif::MotifKind::kTriangle;
    }
    request.spec.algorithm = mix.algorithm;
    request.spec.lazy = mix.lazy;
    request.spec.budget = budget;
    request.seed = 1000 + i;
    // Carry the released graph so the bit-identity checks compare it too.
    request.want_released = true;
    requests.push_back(std::move(request));
  }
  return requests;
}

double MedianOfRuns(size_t reps, const std::function<double()>& run) {
  std::vector<double> seconds;
  seconds.reserve(reps);
  for (size_t r = 0; r < reps; ++r) seconds.push_back(run());
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

struct ScalingPoint {
  int workers = 0;
  double seconds = 0;
  double requests_per_sec = 0;
  double speedup = 0;  ///< vs the sequential loop
};

// Nightly repeated-request scenario: `unique` distinct requests, each
// issued twice per night (50% duplicates), run on two consecutive nights.
// The uncached baseline (RunOne per request: build-per-request, no memo)
// re-solves all of it on the pipeline's worker count, so the aggregate
// speedup is dedup, sharing and caching alone; the staged pipeline dedups
// within the night and serves the second night from the PlanCache.
// Responses are cross-checked bit-identical.
int RunPlanCacheScenario(const PlanService& plan_service, size_t unique,
                         size_t budget, bool quick,
                         const std::string& out_path) {
  std::vector<PlanRequest> night = MakeRequests(unique, budget,
                                                /*heavy=*/!quick);
  for (PlanRequest& request : night) {
    // Nightly batches use the lean default: no released-graph copies
    // (the plan files are the artifact). Identity below compares plans.
    request.want_released = false;
  }
  for (size_t i = 0; i < unique; ++i) {
    PlanRequest duplicate = night[i];  // same payload, different name
    duplicate.name += "-dup";
    night.push_back(std::move(duplicate));
  }
  constexpr int kNights = 2;
  std::printf(
      "== plan cache: %d nights x %zu requests (50%% duplicates) ==\n",
      kNights, night.size());

  // Baseline: every request solved from scratch by RunOne — no dedup, no
  // sharing, no memo — across the same worker count the pipeline below
  // gets.
  const int workers = GlobalThreadCount();
  std::vector<std::vector<PlanResponse>> reference(
      kNights, std::vector<PlanResponse>(night.size()));
  WallTimer uncached_timer;
  for (int n = 0; n < kNights; ++n) {
    GlobalThreadPool().ParallelFor(
        night.size(), workers, /*grain=*/1, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            reference[n][i] = plan_service.RunOne(night[i]);
          }
        });
  }
  const double uncached_seconds = uncached_timer.Seconds();
  for (const auto& responses : reference) {
    for (const PlanResponse& response : responses) {
      TPP_CHECK(response.status.ok());
    }
  }
  std::printf("uncached RunOne x %d workers: %.3fs (%.1f req/s)\n", workers,
              uncached_seconds, kNights * night.size() / uncached_seconds);

  // Staged pipeline: dedup + instance sharing + content-addressed cache
  // warm across nights.
  service::PlanCache cache(/*capacity=*/4 * night.size());
  service::BatchStats stats;
  service::BatchOptions cached;
  cached.cache = &cache;
  cached.stats = &stats;
  cached.max_workers = workers;
  bool identical = true;
  size_t dedup_shared = 0;
  size_t instance_builds = 0;
  WallTimer cached_timer;
  std::vector<std::vector<PlanResponse>> piped;
  for (int n = 0; n < kNights; ++n) {
    piped.push_back(plan_service.RunBatch(night, cached));
    dedup_shared += stats.dedup_shared;
    instance_builds += stats.instance_builds;
  }
  const double cached_seconds = cached_timer.Seconds();
  for (int n = 0; n < kNights; ++n) {
    for (size_t i = 0; i < night.size(); ++i) {
      if (piped[n][i].plan_text != reference[n][i].plan_text ||
          !(piped[n][i].released == reference[n][i].released)) {
        identical = false;
      }
    }
  }
  service::PlanCache::Stats cs = cache.stats();
  const double hit_rate =
      cs.hits + cs.misses > 0
          ? static_cast<double>(cs.hits) / (cs.hits + cs.misses)
          : 0;
  const double speedup = uncached_seconds / cached_seconds;
  std::printf("staged pipeline: %.3fs (%.1f req/s, %.2fx aggregate)\n",
              cached_seconds, kNights * night.size() / cached_seconds,
              speedup);
  std::printf(
      "cache: %llu hits / %llu misses (%.0f%% hit-rate), %zu "
      "dedup-shared, %zu instance builds\n",
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses), 100 * hit_rate,
      dedup_shared, instance_builds);
  std::printf(identical
                  ? "all cached/shared responses bit-identical to the "
                    "uncached path\n"
                  : "DETERMINISM VIOLATION: pipeline output differs from "
                    "the uncached path\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    TPP_CHECK(identical);
    return 0;
  }
  std::fprintf(f, "{\n  \"bench\": \"plan_cache\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"nights\": %d,\n", kNights);
  std::fprintf(f, "  \"requests_per_night\": %zu,\n", night.size());
  std::fprintf(f, "  \"duplicate_fraction\": 0.5,\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f,
               "  \"uncached_baseline\": \"RunOne per request, parallel "
               "over the pipeline's %d workers\",\n",
               workers);
  std::fprintf(f, "  \"identical_to_uncached\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"uncached_seconds\": %.4f,\n", uncached_seconds);
  std::fprintf(f, "  \"cached_seconds\": %.4f,\n", cached_seconds);
  std::fprintf(f, "  \"aggregate_speedup\": %.2f,\n", speedup);
  std::fprintf(f, "  \"cache_hits\": %llu,\n",
               static_cast<unsigned long long>(cs.hits));
  std::fprintf(f, "  \"cache_misses\": %llu,\n",
               static_cast<unsigned long long>(cs.misses));
  std::fprintf(f, "  \"cache_evictions\": %llu,\n",
               static_cast<unsigned long long>(cs.evictions));
  std::fprintf(f, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(f, "  \"dedup_shared\": %zu,\n", dedup_shared);
  std::fprintf(f, "  \"instance_builds\": %zu\n", instance_builds);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("[json] %s\n", out_path.c_str());
  // Fail AFTER writing so a determinism regression still uploads the
  // JSON evidence from CI.
  TPP_CHECK(identical);
  return 0;
}

int Run(int argc, char** argv) {
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status threads_status = ApplyThreadsFlag(*args);
  if (!threads_status.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 threads_status.ToString().c_str());
    return 2;
  }
  const bool quick = args->GetBool("quick");
  Result<int64_t> requests_flag =
      args->GetInt("requests", quick ? 8 : 16);
  if (!requests_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 requests_flag.status().ToString().c_str());
    return 2;
  }
  const size_t num_requests = static_cast<size_t>(*requests_flag);
  const std::string out_path =
      args->GetString("out", "BENCH_service_throughput.json");
  const std::string cache_out_path =
      args->GetString("cache-out", "BENCH_plan_cache.json");
  const size_t reps = quick ? 1 : 3;

  PlanService plan_service(*graph::MakeArenasEmailLike(1));
  std::vector<PlanRequest> requests = MakeRequests(
      num_requests, /*budget=*/quick ? 8 : 24, /*heavy=*/!quick);
  std::printf("== service throughput: %zu mixed-solver requests on %s ==\n",
              requests.size(),
              plan_service.base().DebugString().c_str());

  // Baseline: the pre-service call pattern — one request at a time.
  std::vector<PlanResponse> reference;
  double serial_seconds = MedianOfRuns(reps, [&] {
    WallTimer timer;
    std::vector<PlanResponse> responses;
    responses.reserve(requests.size());
    for (const PlanRequest& request : requests) {
      responses.push_back(plan_service.RunOne(request));
    }
    reference = std::move(responses);
    return timer.Seconds();
  });
  for (const PlanResponse& response : reference) {
    TPP_CHECK(response.status.ok());
  }
  std::printf("sequential loop: %.3fs (%.1f req/s)\n", serial_seconds,
              requests.size() / serial_seconds);

  std::vector<ScalingPoint> points;
  bool identical = true;
  for (int workers : {1, 2, 4, 8}) {
    ScalingPoint point;
    point.workers = workers;
    std::vector<PlanResponse> responses;
    point.seconds = MedianOfRuns(reps, [&] {
      WallTimer timer;
      responses = plan_service.RunBatch(requests, workers);
      return timer.Seconds();
    });
    // Bit-identity of the served plans vs the sequential reference —
    // checked OUTSIDE the timed region so the speedup numbers measure
    // serving cost only.
    TPP_CHECK_EQ(responses.size(), reference.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].plan_text != reference[i].plan_text ||
          !(responses[i].released == reference[i].released)) {
        identical = false;
      }
    }
    point.requests_per_sec = requests.size() / point.seconds;
    point.speedup = serial_seconds / point.seconds;
    points.push_back(point);
    std::printf("batch x%d workers: %.3fs (%.1f req/s, %.2fx)\n",
                workers, point.seconds, point.requests_per_sec,
                point.speedup);
  }
  std::printf(identical
                  ? "all batches bit-identical to the sequential loop\n"
                  : "DETERMINISM VIOLATION: batch output differs from "
                    "the sequential loop\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    TPP_CHECK(identical);
    return 0;
  }
  std::fprintf(f, "{\n  \"bench\": \"service_throughput\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"requests\": %zu,\n", requests.size());
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"pool_threads\": %d,\n", GlobalThreadCount());
  std::fprintf(f, "  \"identical_to_sequential\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"serial_seconds\": %.4f,\n", serial_seconds);
  std::fprintf(f, "  \"serial_requests_per_sec\": %.2f,\n",
               requests.size() / serial_seconds);
  std::fprintf(f, "  \"scaling\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"seconds\": %.4f, "
                 "\"requests_per_sec\": %.2f, \"speedup_vs_serial\": "
                 "%.2f}%s\n",
                 p.workers, p.seconds, p.requests_per_sec, p.speedup,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] %s\n", out_path.c_str());

  int cache_rc = RunPlanCacheScenario(plan_service, num_requests,
                                      /*budget=*/quick ? 8 : 24, quick,
                                      cache_out_path);
  // Fail AFTER writing so a determinism regression still uploads the
  // JSON evidence (with identical_to_sequential: false) from CI.
  TPP_CHECK(identical);
  return cache_rc;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
