#include "common/flags.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/env.h"
#include "common/strings.h"

namespace tpp {

Result<ParsedArgs> ParsedArgs::Parse(int argc, const char* const* argv) {
  ParsedArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      args.positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    std::string key, value;
    size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      key = std::string(body.substr(0, eq));
      value = std::string(body.substr(eq + 1));
    } else {
      key = std::string(body);
      // "--key value" form: consume the next token if it is not a flag.
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";  // boolean flag
      }
    }
    if (key.empty()) {
      return Status::InvalidArgument("empty flag name in " +
                                     std::string(arg));
    }
    if (!args.flags_.emplace(key, value).second) {
      return Status::InvalidArgument("duplicate flag --" + key);
    }
  }
  return args;
}

std::string ParsedArgs::GetString(const std::string& key,
                                  const std::string& fallback) const {
  read_[key] = true;
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

Result<int64_t> ParsedArgs::GetInt(const std::string& key,
                                   int64_t fallback) const {
  read_[key] = true;
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  TPP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(it->second));
  return v;
}

Result<double> ParsedArgs::GetDouble(const std::string& key,
                                     double fallback) const {
  read_[key] = true;
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  TPP_ASSIGN_OR_RETURN(double v, ParseDouble(it->second));
  return v;
}

bool ParsedArgs::GetBool(const std::string& key, bool fallback) const {
  read_[key] = true;
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1";
}

namespace {

// 0 = auto (TPP_THREADS env var, then hardware concurrency).
std::atomic<int> g_thread_count{0};

}  // namespace

int GlobalThreadCount() {
  int explicit_count = g_thread_count.load(std::memory_order_relaxed);
  if (explicit_count > 0) return explicit_count;
  int64_t env = EnvInt("TPP_THREADS", 0);
  if (env > 0) return static_cast<int>(env);
  // hardware_concurrency() reads sysfs on every call, and the round
  // engine resolves the default once per greedy round; read it once.
  static const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return hw;
}

void SetGlobalThreadCount(int threads) {
  g_thread_count.store(threads > 0 ? threads : 0,
                       std::memory_order_relaxed);
}

Status ApplyThreadsFlag(const ParsedArgs& args) {
  if (!args.Has("threads")) return Status::Ok();
  TPP_ASSIGN_OR_RETURN(int64_t threads, args.GetInt("threads", 0));
  SetGlobalThreadCount(static_cast<int>(threads));
  return Status::Ok();
}

std::vector<std::string> ParsedArgs::UnreadFlags() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : flags_) {
    auto it = read_.find(key);
    if (it == read_.end() || !it->second) unread.push_back(key);
  }
  return unread;
}

}  // namespace tpp
