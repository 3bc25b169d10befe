// Seeded load generator for the serving benchmark: one thread multiplexing
// a few Unix-socket connections with ppoll(2).
//
// Phases run in a fixed order. A closed loop keeps a fixed number of
// requests outstanding per connection; an open loop sends on a Poisson
// schedule regardless of replies, and its latencies are timed from each
// item's SCHEDULED send time, so a stall is charged to every request it
// delays. Each phase drains its outstanding replies before the next one
// starts. Request lines get a unique `name=q<index>` appended, <index>
// being the item's position in the served script; edit lines go out on
// connection 0, which carries nothing else when the workload edits, so
// edit replies arrive in script order.

#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "workload.h"

namespace servebench {

enum class Phase : uint8_t { kWarmup = 0, kClosed, kLow, kHigh };
constexpr size_t kNumPhases = 4;
const char* PhaseName(Phase phase);

enum class Outcome : uint8_t { kPending = 0, kOk, kError, kShed };

/// Seconds on one monotonic clock shared by the client and the server hooks.
double NowSeconds();

/// One item of the served script, in send order.
struct SentItem {
  Phase phase = Phase::kWarmup;
  bool is_edit = false;
  uint8_t conn = 0;
  Outcome outcome = Outcome::kPending;
  std::string line;        ///< payload as generated (no name=)
  double scheduled = 0;    ///< due time (open loop) or send time (closed)
  double sent = 0;         ///< when the line was handed to the socket
  double replied = -1;     ///< reply receipt; < 0 while unanswered
  uint64_t reply_hash = 0; ///< ReplyHash of the reply line
};

/// Hash of a reply line without its leading label (`q<index>` or `edit`):
/// the load generator keeps only this, so the harness stays small while
/// the server is measured. Replies are matched to items by label.
uint64_t ReplyHash(std::string_view line);

struct LoadOptions {
  std::string socket_path;
  bool edit_connection = false;  ///< connection 0 carries edits only
  uint64_t seed = 1;             ///< arrival schedule seed
};

struct PhaseWindow {
  double start = 0;
  double last_send = 0;  ///< the phase's last send
  double end = 0;        ///< last reply of the phase (after draining)
};

class LoadGenerator {
 public:
  LoadGenerator(const LoadOptions& options, Generator* generator);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  tpp::Status Connect();

  /// Sends `items` closed-loop and waits for every reply.
  tpp::Status RunWarmup(const std::vector<ScriptItem>& items);
  /// Closed loop: the generator's next `count` requests (edits paused),
  /// then drains.
  tpp::Status RunClosed(size_t count);
  /// Open loop: Poisson arrivals at `rps` for `seconds`, then drains.
  tpp::Status RunOpen(Phase phase, double rps, double seconds);

  /// Closes every connection (the server sees EOF).
  void Close();

  const std::vector<SentItem>& items() const { return items_; }
  const PhaseWindow& window(Phase phase) const {
    return windows_[static_cast<size_t>(phase)];
  }

 private:
  struct Conn;

  size_t RequestConn();
  void Send(Phase phase, ScriptItem item, size_t conn, double scheduled);
  /// Flushes output and handles replies until `deadline`.
  tpp::Status Pump(double deadline);
  tpp::Status Drain(Phase phase);
  void HandleReply(Conn& conn, const std::string& line, double now);
  size_t Outstanding() const;

  LoadOptions options_;
  Generator* generator_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<SentItem> items_;
  PhaseWindow windows_[kNumPhases];
  size_t next_conn_ = 0;
  // Taken from the generator but not yet sent; carried across phases so
  // an edit already applied to the generator's tracked graph is never
  // skipped.
  std::optional<ScriptItem> held_;
  uint64_t schedule_state_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
