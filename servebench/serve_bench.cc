// serve_bench: the serving benchmark for `tpp serve`.
//
// Hosts a service::server::PlanServer in-process, wired as `tpp serve`
// wires it (an InstanceRepository always; plan cache and warm store per
// workload; max_workers=2), and drives it over its Unix socket with the
// seeded load generator: an untimed warm-up, then a closed loop, then two
// open-loop Poisson phases at fixed rates. After timing stops every
// response is checked (see CheckResponses); a mismatch exits non-zero
// without printing metrics. With --trace=1 the served run also records
// pickup times, and the stream is then replayed through the layers'
// public functions for the per-layer breakdown (replay.h).
//
//   serve_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//               --workdir=DIR [--source=ID]
//
// The workload table (workload.cc) fixes the closed-loop request count,
// the open-loop rates and each open-loop phase's share of --seconds.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it (prefixed "servebench-report ") carries the
// environment block, workload properties and per-phase counts.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/blob_io.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/strings.h"
#include "graph/io.h"
#include "loadgen.h"
#include "replay.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/server/server.h"
#include "service/store/warm_store.h"
#include "workload.h"

namespace servebench {
namespace {

using tpp::Result;
using tpp::Status;
using tpp::StrFormat;
namespace service = tpp::service;

constexpr int kMaxWorkers = 2;
// Set-up repeats until it has taken kSetupSeconds in all, within these
// bounds (arenas-solve sets up in ~2 ms, the dblp workloads in ~0.2 s).
constexpr size_t kMinSetupRepeats = 5;
constexpr size_t kMaxSetupRepeats = 200;
constexpr double kSetupSeconds = 2.5;
// Open-loop sends later than this at the 99th percentile make the run
// invalid: the generator, not the server, would be shaping the load.
// Lateness below it is charged to latency anyway (timed from the schedule).
constexpr double kMaxLateP99Ms = 50.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  double seconds = 0;
  std::string workdir;
  std::string source;
};

Result<Args> ParseArgs(int argc, char** argv) {
  TPP_ASSIGN_OR_RETURN(tpp::ParsedArgs parsed,
                       tpp::ParsedArgs::Parse(argc, argv));
  Args args;
  args.workload = parsed.GetString("workload", "");
  args.workdir = parsed.GetString("workdir", "");
  args.source = parsed.GetString("source", "unknown");
  TPP_ASSIGN_OR_RETURN(int64_t seed, parsed.GetInt("seed", 1));
  TPP_ASSIGN_OR_RETURN(int64_t trace, parsed.GetInt("trace", 0));
  TPP_ASSIGN_OR_RETURN(args.seconds, parsed.GetDouble("seconds", 0));
  args.seed = static_cast<uint64_t>(seed);
  args.trace = trace != 0;
  for (const std::string& unread : parsed.UnreadFlags()) {
    return Status::InvalidArgument("unknown flag --" + unread);
  }
  if (args.workload.empty() || args.workdir.empty() || args.seconds <= 0) {
    return Status::InvalidArgument("need --workload --seconds --workdir");
  }
  return args;
}

// A percentile is reported only when at least ten samples lie beyond it.
bool Supported(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

double PeakRssMb() {
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// N threads of fixed work against one: how many cores the machine really
// gives a parallel run right now (on shared virtual machines far fewer
// than nproc at times).
double EffectiveCores(unsigned threads) {
  auto work = [] {
    uint64_t x = 0;
    for (uint64_t i = 0; i < 10'000'000; ++i) x = tpp::SplitMix64(x + i);
    return x;
  };
  std::atomic<uint64_t> sink{0};
  double start = NowSeconds();
  sink += work();
  const double one = NowSeconds() - start;
  start = NowSeconds();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&] { sink += work(); });
  }
  for (std::thread& t : pool) t.join();
  const double many = NowSeconds() - start;
  return static_cast<double>(threads) * one / many;
}

// On a shared 4-vCPU cloud VM, parallel work that follows a few idle
// seconds runs on about one core for the first 1-3 s before all vCPUs
// come back.
// Keep every core busy until the calibration reads at least 3/4 of nproc
// three times in a row (at most 8 s), so each measured phase starts on
// the same footing. Returns the last calibration.
double SpinUpCores(unsigned threads) {
  const double deadline = NowSeconds() + 8;
  double effective = 0;
  for (int good = 0; good < 3 && NowSeconds() < deadline;) {
    effective = EffectiveCores(threads);
    good = effective >= 0.75 * threads ? good + 1 : 0;
  }
  return effective;
}

// One hosted server and the serving state `tpp serve` wires around it.
// The solve-loop hooks record, per picked-up request, its admission epoch,
// pickup batch and (when tracing) pickup time.
class HostedServer {
 public:
  HostedServer() = default;
  HostedServer(const HostedServer&) = delete;
  HostedServer& operator=(const HostedServer&) = delete;
  ~HostedServer() { (void)Stop(); }

  // Loads the graph, builds the serving state and brings the listener up
  // to accepting connections.
  Status Start(const WorkloadSpec& spec, const std::string& graph_path,
               const std::string& socket_path, const std::string& store_dir,
               bool record_times) {
    Result<tpp::graph::Graph> graph = tpp::graph::LoadEdgeList(graph_path);
    if (!graph.ok()) return graph.status();
    service_ = std::make_unique<service::PlanService>(std::move(*graph));
    if (spec.store) {
      Result<std::unique_ptr<service::store::WarmStore>> store =
          service::store::WarmStore::Open(store_dir);
      if (!store.ok()) return store.status();
      store_ = std::move(*store);
    }
    if (spec.cache_capacity > 0) {
      cache_ = std::make_unique<service::PlanCache>(spec.cache_capacity);
      cache_->set_backing_store(store_.get());
    }
    repository_ =
        std::make_unique<service::InstanceRepository>(&service_->base());
    service::server::ServerOptions options;
    options.socket_path = socket_path;
    // Caps high enough that nothing sheds at the benchmark's rates.
    options.admission.max_queue_depth = 1 << 20;
    options.admission.max_queued_bytes = size_t{1} << 30;
    options.admission.max_per_client = 0;
    options.max_workers = kMaxWorkers;
    options.cache = cache_.get();
    options.store = store_.get();
    options.repository = repository_.get();
    pickups_.reserve(1 << 15);
    options.before_pickup = [this] { ++batch_; };
    options.on_pickup = [this, record_times](
                            const service::server::QueuedItem& item) {
      Pickup pickup;
      const size_t at = item.line.find("name=q");
      if (at == std::string::npos) return;
      pickup.item = std::strtoull(item.line.c_str() + at + 6, nullptr, 10);
      pickup.epoch = item.epoch;
      pickup.batch = batch_;
      if (record_times) pickup.time = NowSeconds();
      pickups_.push_back(pickup);
    };
    server_ =
        std::make_unique<service::server::PlanServer>(service_.get(), options);
    thread_ = std::thread([this] {
      served_ = server_->Serve();
      exited_.store(true, std::memory_order_release);
    });
    // Accepting: a probe connection succeeds.
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(),
                std::min(socket_path.size(), sizeof(addr.sun_path) - 1));
    const double deadline = NowSeconds() + 30;
    while (NowSeconds() < deadline &&
           !exited_.load(std::memory_order_acquire)) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool up = fd >= 0 &&
                      ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr)) == 0;
      if (fd >= 0) ::close(fd);
      if (up) return Status::Ok();
      ::usleep(200);
    }
    (void)Stop();  // joins; Serve's own error, if any, wins
    return served_.ok() ? Status::IoError("server did not start accepting")
                        : served_;
  }

  // Drains the server and joins its thread; returns Serve's status.
  Status Stop() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    return served_;
  }

  service::server::PlanServer& server() { return *server_; }
  service::PlanCache* cache() { return cache_.get(); }
  service::store::WarmStore* store() { return store_.get(); }
  service::InstanceRepository& repository() { return *repository_; }
  /// Valid after Stop().
  const std::vector<Pickup>& pickups() const { return pickups_; }

 private:
  std::unique_ptr<service::PlanService> service_;
  std::unique_ptr<service::store::WarmStore> store_;
  std::unique_ptr<service::PlanCache> cache_;
  std::unique_ptr<service::InstanceRepository> repository_;
  std::unique_ptr<service::server::PlanServer> server_;
  // Written by the solve loop only; read after the thread is joined.
  std::vector<Pickup> pickups_;
  uint64_t batch_ = 0;
  Status served_ = Status::Ok();  // read after the thread is joined
  std::atomic<bool> exited_{false};
  std::thread thread_;
};

struct PhaseCounts {
  size_t sent = 0, ok = 0, error = 0, shed = 0, unanswered = 0;
  size_t edits_sent = 0, edits_ok = 0;
};

struct Served {
  std::vector<SentItem> items;
  std::vector<Pickup> pickups;
  PhaseWindow windows[kNumPhases];
  double peak_rss_mb = 0;
  double rss_before_mb = 0;
  double rss_after_mb = 0;
  double open_cpu_s = 0;  ///< process CPU time over the open-loop phases
  service::server::ServerStats server_stats;
  service::PlanCache::Stats cache_stats;
  service::store::WarmStore::Stats store_stats;
  uint64_t store_bytes = 0;
  size_t repo_groups = 0, repo_builds = 0, repo_acquisitions = 0;
  StreamProperties properties;
};

// Serves one seeded stream: warm-up, closed loop, then the two open-loop
// phases.
Status ServeStream(const Args& args, const WorkloadSpec& spec,
                   const std::string& graph_path, HostedServer& host,
                   const std::string& socket_path, Served* out) {
  Result<tpp::graph::Graph> base = tpp::graph::LoadEdgeList(graph_path);
  if (!base.ok()) return base.status();
  Generator generator(spec, args.seed, std::move(*base));
  LoadOptions options;
  options.socket_path = socket_path;
  options.edit_connection = spec.edit_every > 0;
  options.seed = args.seed;
  LoadGenerator load(options, &generator);
  TPP_RETURN_IF_ERROR(load.Connect());
  out->rss_before_mb = CurrentRssMb();
  TPP_RETURN_IF_ERROR(load.RunWarmup(generator.Warmup()));
  TPP_RETURN_IF_ERROR(load.RunClosed(spec.closed_requests));
  // CPU is charged over the open-loop phases, where edits run; on
  // dblp-edits the closed loop is all cache and store hits.
  const double cpu_before = ProcessCpuSeconds();
  TPP_RETURN_IF_ERROR(load.RunOpen(Phase::kLow, spec.low_rps,
                                   spec.low_share * args.seconds));
  TPP_RETURN_IF_ERROR(load.RunOpen(Phase::kHigh, spec.high_rps,
                                   spec.high_share * args.seconds));
  out->open_cpu_s = ProcessCpuSeconds() - cpu_before;
  out->peak_rss_mb = PeakRssMb();
  out->rss_after_mb = CurrentRssMb();
  load.Close();
  TPP_RETURN_IF_ERROR(host.Stop());
  out->items = load.items();
  for (size_t p = 0; p < kNumPhases; ++p) {
    out->windows[p] = load.window(static_cast<Phase>(p));
  }
  out->pickups = host.pickups();
  out->server_stats = host.server().snapshot_stats();
  if (host.cache() != nullptr) out->cache_stats = host.cache()->stats();
  if (host.store() != nullptr) {
    out->store_stats = host.store()->stats();
    Result<std::vector<service::store::StoreEntry>> entries =
        host.store()->Scan();
    if (entries.ok()) {
      for (const auto& entry : *entries) out->store_bytes += entry.bytes;
    }
  }
  out->repo_groups = host.repository().NumGroups();
  out->repo_builds = host.repository().NumBuilds();
  out->repo_acquisitions = host.repository().NumAcquisitions();
  out->properties = generator.properties();
  return Status::Ok();
}

// Closed-loop throughput: OK replies between the phase's start and its
// last send (the loop is saturated there; the drain tail is not) per
// second.
double ClosedThroughput(const Served& served) {
  const PhaseWindow& w = served.windows[static_cast<size_t>(Phase::kClosed)];
  const double span = w.last_send - w.start;
  if (span <= 0) return 0;
  size_t ok = 0;
  for (const SentItem& item : served.items) {
    if (item.phase == Phase::kClosed && !item.is_edit &&
        item.outcome == Outcome::kOk && item.replied < w.last_send) {
      ++ok;
    }
  }
  return static_cast<double>(ok) / span;
}

// The correctness gate. Every served request line is grouped by (admission
// epoch, payload): all lines of a group must agree apart from the name, and
// a sample of groups fixed per workload (the `check_sample` groups with the
// smallest content hashes) is recomputed as
// FormatResponseLine(request, PlanService::RunOne(request)) on a reference
// service that replays the edits in order. Every edit reply is checked
// against the reference edit. Returns the first mismatch, or OK.
Status CheckResponses(const WorkloadSpec& spec,
                      const std::string& graph_path, const Served& served,
                      size_t* checked_groups) {
  const std::vector<SentItem>& items = served.items;
  std::vector<int64_t> epoch_of(items.size(), -1);
  for (const Pickup& p : served.pickups) {
    if (p.item < items.size()) epoch_of[p.item] = static_cast<int64_t>(p.epoch);
  }
  struct Group {
    uint64_t epoch = 0;
    size_t first = 0;  // script index of the first member
    uint64_t hash = 0;
  };
  std::map<std::pair<uint64_t, std::string_view>, Group> groups;
  std::vector<size_t> edits;
  for (size_t i = 0; i < items.size(); ++i) {
    const SentItem& item = items[i];
    if (item.is_edit) {
      edits.push_back(i);
      continue;
    }
    if (item.outcome != Outcome::kOk && item.outcome != Outcome::kError) {
      continue;  // shed or unanswered: counted as failed, nothing to check
    }
    if (item.line.empty()) {
      return Status::Internal("unsolicited reply (printed above)");
    }
    if (epoch_of[i] < 0) {
      return Status::Internal(
          StrFormat("answered request q%zu never picked up", i));
    }
    const uint64_t epoch = static_cast<uint64_t>(epoch_of[i]);
    auto [it, inserted] =
        groups.try_emplace({epoch, std::string_view(item.line)});
    if (inserted) {
      it->second.epoch = epoch;
      it->second.first = i;
      const std::string content =
          spec.name + StrFormat("|%llu|", static_cast<unsigned long long>(
                                              epoch)) + item.line;
      it->second.hash = tpp::HashBytes64(content.data(), content.size());
      continue;
    }
    // Reply hashes leave out the label, so they compare the replies apart
    // from the name.
    if (items[it->second.first].reply_hash != item.reply_hash) {
      return Status::Internal(StrFormat(
          "same request, same epoch, different replies: q%zu vs q%zu (%s)",
          it->second.first, i, item.line.c_str()));
    }
  }
  std::vector<const Group*> sample;
  for (const auto& [key, group] : groups) sample.push_back(&group);
  std::sort(sample.begin(), sample.end(),
            [](const Group* a, const Group* b) { return a->hash < b->hash; });
  if (sample.size() > spec.check_sample) sample.resize(spec.check_sample);
  std::sort(sample.begin(), sample.end(), [](const Group* a, const Group* b) {
    return a->epoch < b->epoch;
  });
  *checked_groups = sample.size();

  Result<tpp::graph::Graph> base = tpp::graph::LoadEdgeList(graph_path);
  if (!base.ok()) return base.status();
  service::PlanService reference(std::move(*base));
  size_t next = 0;
  for (uint64_t epoch = 0;; ++epoch) {
    size_t end = next;
    while (end < sample.size() && sample[end]->epoch == epoch) ++end;
    std::vector<std::string> expected(end - next);
    std::atomic<size_t> cursor{next};
    auto worker = [&] {
      for (size_t s = cursor++; s < end; s = cursor++) {
        const size_t index = sample[s]->first;
        Result<service::PlanRequest> request = service::ParsePlanRequestLine(
            items[index].line + StrFormat(" name=q%zu", index), 1, 0);
        expected[s - next] =
            request.ok()
                ? service::server::FormatResponseLine(
                      *request, reference.RunOne(*request))
                : "unparsable request: " + request.status().ToString();
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    for (size_t s = next; s < end; ++s) {
      const size_t index = sample[s]->first;
      if (items[index].reply_hash != ReplyHash(expected[s - next])) {
        return Status::Internal(StrFormat("served q%zu differs from ", index) +
                                "expected '" + expected[s - next] + "'");
      }
    }
    next = end;
    if (epoch >= edits.size()) break;
    // Edit `epoch` moves the server from epoch to epoch + 1.
    const SentItem& edit = items[edits[epoch]];
    if (edit.outcome != Outcome::kOk) continue;  // counted as failed
    Result<tpp::graph::GraphDelta> delta =
        service::ParseEditLine(edit.line, 1);
    if (!delta.ok()) return delta.status();
    Result<service::EditSummary> summary = reference.ApplyEdit(*delta);
    if (!summary.ok()) return summary.status();
    const std::string line = EditReplyLine(*summary);
    if (edit.reply_hash != ReplyHash(line)) {
      return Status::Internal(StrFormat("edit %llu differs from ",
                                        static_cast<unsigned long long>(
                                            epoch)) +
                              "expected '" + line + "'");
    }
  }
  if (next != sample.size()) {
    return Status::Internal("sampled groups beyond the last edit epoch");
  }
  return Status::Ok();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.10g", v);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "serve_bench: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const Args args = *parsed;
  Result<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found.ok()) return Fail(found.status().ToString());
  const WorkloadSpec spec = *found;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(args.workdir, ec);
  if (ec) return Fail("cannot create " + args.workdir);

  // -- Environment: the core count as the run finds it, before spin-up.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double cold_cores = EffectiveCores(nproc);

  // -- Inputs: the graph file is written before any timing.
  const std::string graph_path = args.workdir + "/base.edges";
  const std::string socket_path = args.workdir + "/serve.sock";
  {
    Result<tpp::graph::Graph> generated = MakeBaseGraph(spec);
    if (!generated.ok()) return Fail(generated.status().ToString());
    Status saved = tpp::graph::SaveEdgeList(*generated, graph_path);
    if (!saved.ok()) return Fail(saved.ToString());
  }

  // -- Set-up, repeated (see kSetupSeconds); the median is reported and the
  // last server stays up for the run.
  std::vector<double> setup_times;
  double setup_total = 0;
  std::unique_ptr<HostedServer> host;
  for (size_t rep = 0; rep < kMinSetupRepeats ||
                       (setup_total < kSetupSeconds && rep < kMaxSetupRepeats);
       ++rep) {
    host.reset();
    host = std::make_unique<HostedServer>();
    const double start = NowSeconds();
    Status started =
        host->Start(spec, graph_path, socket_path,
                    args.workdir + StrFormat("/store-%zu", rep), args.trace);
    setup_times.push_back(NowSeconds() - start);
    setup_total += setup_times.back();
    if (!started.ok()) return Fail(started.ToString());
  }
  const double setup_s = Percentile(setup_times, 0.5);
  const double effective_cores = SpinUpCores(nproc);

  // -- The measured run.
  Served served;
  Status ran = ServeStream(args, spec, graph_path, *host, socket_path,
                           &served);
  if (!ran.ok()) return Fail(ran.ToString());
  const double throughput_rps = ClosedThroughput(served);
  // Everything below works from `served`; free the serving state (on
  // arenas-solve the repository holds every request's group, ~2 GB). The
  // server's worker threads allocated it in their own malloc arenas, which
  // the main thread's reference service and replay do not reuse: hand the
  // freed pages back, or the traced run peaks at twice the served RSS.
  host.reset();
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif

  // -- End-to-end figures (timing has stopped).
  PhaseCounts counts[kNumPhases];
  std::vector<double> latency[kNumPhases];
  std::vector<double> edit_latency;
  std::vector<double> lateness;
  std::vector<double> admission_wait;
  size_t high_within_slo = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> pickup_time(served.items.size(), -1);
  for (const Pickup& p : served.pickups) {
    if (p.item < pickup_time.size()) pickup_time[p.item] = p.time;
  }
  for (size_t i = 0; i < served.items.size(); ++i) {
    const SentItem& item = served.items[i];
    if (item.line.empty()) {  // unsolicited reply line
      ++attempted;
      ++failed;
      continue;
    }
    PhaseCounts& c = counts[static_cast<size_t>(item.phase)];
    const bool open = item.phase == Phase::kLow || item.phase == Phase::kHigh;
    ++attempted;
    if (item.outcome != Outcome::kOk) ++failed;
    if (open) lateness.push_back(item.sent - item.scheduled);
    if (item.is_edit) {
      ++c.edits_sent;
      if (item.outcome == Outcome::kOk) {
        ++c.edits_ok;
        if (open) edit_latency.push_back(item.replied - item.scheduled);
      }
      continue;
    }
    ++c.sent;
    switch (item.outcome) {
      case Outcome::kOk:
        ++c.ok;
        break;
      case Outcome::kError:
        ++c.error;
        break;
      case Outcome::kShed:
        ++c.shed;
        break;
      case Outcome::kPending:
        ++c.unanswered;
        break;
    }
    if (item.outcome != Outcome::kOk || !open) continue;
    const double ms = (item.replied - item.scheduled) * 1e3;
    latency[static_cast<size_t>(item.phase)].push_back(ms);
    if (item.phase == Phase::kHigh && ms <= spec.slo_ms) ++high_within_slo;
    if (args.trace && pickup_time[i] >= 0) {
      admission_wait.push_back((pickup_time[i] - item.sent) * 1e3);
    }
  }
  const std::vector<double>& low = latency[static_cast<size_t>(Phase::kLow)];
  const std::vector<double>& high = latency[static_cast<size_t>(Phase::kHigh)];
  const PhaseCounts& high_counts = counts[static_cast<size_t>(Phase::kHigh)];
  const double open_ok = static_cast<double>(
      counts[static_cast<size_t>(Phase::kLow)].ok + high_counts.ok);
  const double late_p99_ms = Percentile(lateness, 0.99) * 1e3;

  std::vector<std::string> invalid;
  if (!Supported(low.size(), 0.99) || !Supported(high.size(), 0.99)) {
    invalid.push_back(StrFormat(
        "too few open-loop samples for p99 (low %zu, high %zu)", low.size(),
        high.size()));
  }
  if (spec.edit_every > 0 && !Supported(edit_latency.size(), 0.9)) {
    invalid.push_back(
        StrFormat("too few edits for p90 (%zu)", edit_latency.size()));
  }
  if (late_p99_ms > kMaxLateP99Ms) {
    invalid.push_back(StrFormat("load generator late: p99 %.2f ms > %.1f ms",
                                late_p99_ms, kMaxLateP99Ms));
  }

  // -- Correctness gate.
  size_t checked_groups = 0;
  Status checked = CheckResponses(spec, graph_path, served, &checked_groups);
  if (!checked.ok()) return Fail("response mismatch: " + checked.ToString());
  const double fail_frac =
      attempted == 0 ? 0 : static_cast<double>(failed) / attempted;
  const double edit_p50 = Percentile(edit_latency, 0.5) * 1e3;
  const double edit_p90 = Percentile(edit_latency, 0.9) * 1e3;
  // The gated end-to-end set: the figures whose run-to-run spread on a
  // shared cloud VM stays inside their bound in every host state seen
  // (README.md). The other served figures are printed on every run but not
  // gated.
  std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"cpu_ms_per_req", open_ok == 0 ? 0 : served.open_cpu_s * 1e3 / open_ok,
       "ms"},
      {"peak_rss_mb", served.peak_rss_mb, "MB"},
  };

  const StreamProperties& props = served.properties;
  const double requests =
      static_cast<double>(std::max<size_t>(props.requests, 1));
  // Served figures outside the gated set: the report line carries them
  // on every run, the traced result too.
  const std::vector<Metric> served_extra = {
      {"throughput_rps", throughput_rps, "req/s"},
      {"low.p50_ms", Percentile(low, 0.5), "ms"},
      {"high.p50_ms", Percentile(high, 0.5), "ms"},
      {"low.p99_ms", Percentile(low, 0.99), "ms"},
      {"high.p99_ms", Percentile(high, 0.99), "ms"},
      {"high.slo_frac",
       high_counts.sent == 0
           ? 0
           : static_cast<double>(high_within_slo) / high_counts.sent,
       "fraction"},
      {"fail_frac", fail_frac, "fraction"},
      {"edit.p50_ms", edit_p50, "ms"},
      {"edit.p90_ms", edit_p90, "ms"},
      {"loadgen.late_p99_ms", late_p99_ms, "ms"},
  };
  // Workload properties and environment: report line only.
  std::vector<Metric> properties = {
      {"edit.count", static_cast<double>(edit_latency.size()), "count"},
      {"workload.requests", static_cast<double>(props.requests), "count"},
      {"workload.repeat_share", props.repeats / requests, "fraction"},
      {"workload.distinct_groups", static_cast<double>(props.groups.size()),
       "count"},
      {"workload.edits", static_cast<double>(props.edits), "count"},
      {"env.nproc", static_cast<double>(nproc), "count"},
      {"env.effective_cores_cold", cold_cores, "cores"},
      {"env.effective_cores", effective_cores, "cores"},
  };
  for (const char* motif : {"Triangle", "Rectangle", "RecTri", "Pentagon"}) {
    auto it = props.motif_mix.find(motif);
    properties.push_back({StrFormat("workload.motif.%s", motif),
                     it == props.motif_mix.end() ? 0 : it->second / requests,
                     "fraction"});
  }
  for (const char* solver : {"sgb", "ct-tbd", "ct-dbd", "wt-tbd", "wt-dbd"}) {
    auto it = props.solver_mix.find(solver);
    properties.push_back({StrFormat("workload.solver.%s", solver),
                     it == props.solver_mix.end() ? 0 : it->second / requests,
                     "fraction"});
  }

  // -- Traced replay.
  std::vector<Metric> per_layer;
  if (args.trace) {
    Tracer tracer;
    ReplayInput input;
    input.spec = &spec;
    input.graph_path = graph_path;
    input.store_dir = args.workdir + "/store-replay";
    input.side_store_dir = args.workdir + "/store-side";
    input.max_workers = kMaxWorkers;
    input.items = &served.items;
    input.pickups = &served.pickups;
    Result<ReplayResult> replay = Replay(input, &tracer);
    if (!replay.ok()) return Fail("replay: " + replay.status().ToString());
    if (replay->mismatches > 0) {
      return Fail("replay mismatch: " + replay->first_mismatch);
    }
    const std::string trace_dir = args.workdir + "/../traces";
    fs::create_directories(trace_dir, ec);
    const std::string trace_path = StrFormat(
        "%s/%s-seed%llu.spans.tsv", trace_dir.c_str(), spec.name.c_str(),
        static_cast<unsigned long long>(args.seed));
    Status written = tracer.Write(trace_path);
    if (!written.ok()) return Fail(written.ToString());

    std::map<std::string, double> m = replay->metrics;
    const auto& cs = served.cache_stats;
    const double lookups =
        static_cast<double>(cs.hits + cs.backing_hits + cs.misses);
    const auto& ss = served.server_stats;
    const double groups = static_cast<double>(served.repo_groups);
    auto unit_of = [](const std::string& name) -> std::string {
      auto ends = [&](const char* suffix) {
        const size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
      };
      if (ends("_ms")) return "ms";
      if (ends("_us")) return "us";
      if (ends("_ns_per_line")) return "ns";
      if (ends("_mb") || ends("mb_per_group")) return "MB";
      if (ends("_ratio") || ends("coverage") || ends("overhead") ||
          ends("_mean")) {
        return "ratio";
      }
      return "count";
    };
    m["cache.lookups"] = lookups;
    m["cache.hit_ratio"] = lookups > 0 ? cs.hits / lookups : 0;
    m["cache.evictions"] = static_cast<double>(cs.evictions);
    m["cache.backing_hits"] = static_cast<double>(cs.backing_hits);
    m["repo.builds"] = static_cast<double>(served.repo_builds);
    m["repo.acquisitions"] = static_cast<double>(served.repo_acquisitions);
    m["repo.retained_groups"] = groups;
    m["repo.mb_per_group"] =
        groups > 0
            ? std::max(0.0, served.rss_after_mb - served.rss_before_mb) / groups
            : 0;
    m["store.bytes_written"] = static_cast<double>(served.store_bytes);
    m["store.io_retries"] = static_cast<double>(served.store_stats.io_retries);
    m["store.degradations"] =
        static_cast<double>(served.store_stats.degradations());
    m["admission.wait_p50_ms"] = Percentile(admission_wait, 0.5);
    m["admission.wait_p99_ms"] = Percentile(admission_wait, 0.99);
    m["admission.queue_depth_max"] = static_cast<double>(ss.max_queue_depth);
    m["server.shed_total"] = static_cast<double>(ss.shed_total());
    m["server.dropped_responses"] = static_cast<double>(ss.dropped_responses);
    for (const auto& [name, value] : m) {
      per_layer.push_back({name, value, unit_of(name)});
    }
    per_layer.insert(per_layer.end(), served_extra.begin(), served_extra.end());
  }

  // -- Report.
  std::string report = StrFormat(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"env\": {\"nproc\": %u, \"effective_cores_cold\": %s, "
      "\"effective_cores\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"source\": %s}, \"checked_groups\": %zu, "
      "\"load\": {\"closed_requests\": %zu, \"low_rps\": %s, "
      "\"low_seconds\": %s, \"high_rps\": %s, \"high_seconds\": %s, "
      "\"slo_ms\": %s}, "
      "\"phases\": {",
      JsonString(spec.name).c_str(),
      static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, nproc,
      JsonNumber(cold_cores).c_str(), JsonNumber(effective_cores).c_str(),
      JsonString("g++ " __VERSION__).c_str(),
      JsonString(SERVEBENCH_BUILD_TYPE).c_str(),
      JsonString(args.source).c_str(), checked_groups,
      spec.closed_requests, JsonNumber(spec.low_rps).c_str(),
      JsonNumber(spec.low_share * args.seconds).c_str(),
      JsonNumber(spec.high_rps).c_str(),
      JsonNumber(spec.high_share * args.seconds).c_str(),
      JsonNumber(spec.slo_ms).c_str());
  for (size_t p = 0; p < kNumPhases; ++p) {
    const PhaseCounts& c = counts[p];
    report += StrFormat(
        "%s\"%s\": {\"sent\": %zu, \"ok\": %zu, \"error\": %zu, "
        "\"shed\": %zu, \"unanswered\": %zu, \"edits_sent\": %zu, "
        "\"edits_ok\": %zu, \"seconds\": %s}",
        p == 0 ? "" : ", ", PhaseName(static_cast<Phase>(p)), c.sent, c.ok,
        c.error, c.shed, c.unanswered, c.edits_sent, c.edits_ok,
        JsonNumber(served.windows[p].end - served.windows[p].start).c_str());
  }
  std::vector<Metric> all = end_to_end;
  all.insert(all.end(), served_extra.begin(), served_extra.end());
  all.insert(all.end(), properties.begin(), properties.end());
  report += "}, \"metrics\": " + MetricsJson(all) + "}";
  if (!invalid.empty()) {
    std::string all;
    for (const std::string& reason : invalid) all += reason + "; ";
    std::fprintf(stderr, "servebench-report %s\n", report.c_str());
    return Fail("invalid run: " + all);
  }
  std::printf("servebench-report %s\n", report.c_str());
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              attempted, failed,
              MetricsJson(args.trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
