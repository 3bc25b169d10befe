#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>

#include "common/blob_io.h"
#include "common/rng.h"
#include "common/strings.h"
#include "service/server/framing.h"

namespace servebench {

using tpp::Status;

uint64_t ReplyHash(std::string_view line) {
  const size_t space = line.find(' ');
  const std::string_view rest =
      space == std::string_view::npos ? std::string_view() : line.substr(space);
  return tpp::HashBytes64(rest.data(), rest.size());
}

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kClosedDepth = 8;  // outstanding requests per connection
// A phase whose replies have not all arrived by then leaves them
// unanswered (counted as failures).
constexpr double kDrainTimeoutS = 60;

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kWarmup:
      return "warmup";
    case Phase::kClosed:
      return "closed";
    case Phase::kLow:
      return "low";
    case Phase::kHigh:
      return "high";
  }
  return "?";
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LoadGenerator::Conn {
  int fd = -1;
  std::string out;  ///< bytes not yet accepted by the socket
  tpp::service::server::LineAssembler in;
  std::deque<size_t> edits;  ///< sent edit items awaiting their reply
  size_t outstanding = 0;
};

LoadGenerator::LoadGenerator(const LoadOptions& options, Generator* generator)
    : options_(options), generator_(generator) {
  items_.reserve(1 << 15);
}

LoadGenerator::~LoadGenerator() { Close(); }

Status LoadGenerator::Connect() {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long");
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size());
  for (size_t i = 0; i < kConnections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (conn->fd < 0) return Status::IoError("socket() failed");
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(conn->fd);
      return Status::IoError(std::string("connect: ") + std::strerror(errno));
    }
    ::fcntl(conn->fd, F_SETFL, O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
  return Status::Ok();
}

void LoadGenerator::Close() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
}

size_t LoadGenerator::Outstanding() const {
  size_t total = 0;
  for (const auto& conn : conns_) total += conn->outstanding;
  return total;
}

size_t LoadGenerator::RequestConn() {
  const size_t first = options_.edit_connection ? 1 : 0;
  const size_t span = conns_.size() - first;
  return first + (next_conn_++ % span);
}

void LoadGenerator::Send(Phase phase, ScriptItem item, size_t conn_index,
                         double scheduled) {
  Conn& conn = *conns_[conn_index];
  const size_t index = items_.size();
  SentItem& sent = items_.emplace_back();
  sent.phase = phase;
  sent.is_edit = item.is_edit;
  sent.conn = static_cast<uint8_t>(conn_index);
  sent.line = std::move(item.line);
  sent.scheduled = scheduled;
  if (sent.is_edit) {
    conn.out += sent.line;
    conn.edits.push_back(index);
  } else {
    conn.out += sent.line;
    conn.out += tpp::StrFormat(" name=q%zu", index);
  }
  conn.out += '\n';
  ++conn.outstanding;
  // Hand the bytes to the kernel now; Pump retries whatever did not fit.
  const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                           MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n > 0) conn.out.erase(0, static_cast<size_t>(n));
  sent.sent = NowSeconds();
}

void LoadGenerator::HandleReply(Conn& conn, const std::string& line,
                                double now) {
  size_t index = SIZE_MAX;
  if (line.rfind("edit ", 0) == 0) {
    if (!conn.edits.empty()) {
      index = conn.edits.front();
      conn.edits.pop_front();
    }
  } else if (line.size() > 1 && line[0] == 'q') {
    const size_t space = line.find(' ');
    tpp::Result<int64_t> parsed = tpp::ParseInt64(
        std::string_view(line).substr(1, space == std::string::npos
                                             ? std::string::npos
                                             : space - 1));
    if (parsed.ok() && *parsed >= 0 &&
        static_cast<size_t>(*parsed) < items_.size()) {
      index = static_cast<size_t>(*parsed);
    }
  }
  if (index == SIZE_MAX || items_[index].replied >= 0) {
    // A reply the script cannot own: record it as a protocol failure on a
    // synthetic item so it is counted, never silently dropped.
    SentItem& bogus = items_.emplace_back();
    bogus.outcome = Outcome::kError;
    bogus.reply_hash = ReplyHash(line);
    bogus.replied = now;
    std::fprintf(stderr, "serve_bench: unsolicited reply '%s'\n",
                 line.c_str());
    return;
  }
  SentItem& item = items_[index];
  const size_t first = line.find(' ');
  const std::string_view verdict =
      first == std::string::npos
          ? std::string_view()
          : std::string_view(line).substr(first + 1, 4);
  item.outcome = verdict.substr(0, 2) == "ok"    ? Outcome::kOk
                 : verdict == "shed"             ? Outcome::kShed
                                                 : Outcome::kError;
  item.replied = now;
  item.reply_hash = ReplyHash(line);
  if (conn.outstanding > 0) --conn.outstanding;
}

Status LoadGenerator::Pump(double deadline) {
  std::vector<pollfd> fds;
  fds.reserve(conns_.size());
  for (const auto& conn : conns_) {
    short events = POLLIN;
    if (!conn->out.empty()) events |= POLLOUT;
    fds.push_back({conn->fd, events, 0});
  }
  const double wait = std::max(0.0, deadline - NowSeconds());
  timespec timeout;
  timeout.tv_sec = static_cast<time_t>(wait);
  timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return Status::Ok();
    return Status::IoError("ppoll failed");
  }
  for (size_t i = 0; i < fds.size(); ++i) {
    Conn& conn = *conns_[i];
    if (fds[i].revents & POLLOUT) {
      const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn.out.erase(0, static_cast<size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        return Status::IoError("send failed");
      }
    }
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n == 0) return Status::IoError("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return Status::IoError("recv failed");
      }
      const double now = NowSeconds();
      for (const std::string& line :
           conn.in.Feed(std::string_view(buffer, static_cast<size_t>(n)))) {
        HandleReply(conn, line, now);
      }
    }
  }
  return Status::Ok();
}

Status LoadGenerator::Drain(Phase phase) {
  const double deadline = NowSeconds() + kDrainTimeoutS;
  while (Outstanding() > 0 && NowSeconds() < deadline) {
    TPP_RETURN_IF_ERROR(Pump(std::min(deadline, NowSeconds() + 0.05)));
  }
  windows_[static_cast<size_t>(phase)].end = NowSeconds();
  return Status::Ok();
}

Status LoadGenerator::RunWarmup(const std::vector<ScriptItem>& items) {
  windows_[static_cast<size_t>(Phase::kWarmup)].start = NowSeconds();
  size_t next = 0;
  while (next < items.size()) {
    for (size_t c = 0; c < conns_.size() && next < items.size(); ++c) {
      const size_t target = items[next].is_edit ? 0 : RequestConn();
      if (conns_[target]->outstanding >= kClosedDepth) continue;
      Send(Phase::kWarmup, items[next], target, NowSeconds());
      ++next;
    }
    TPP_RETURN_IF_ERROR(Pump(NowSeconds() + 0.01));
  }
  return Drain(Phase::kWarmup);
}

Status LoadGenerator::RunClosed(size_t count) {
  PhaseWindow& window = windows_[static_cast<size_t>(Phase::kClosed)];
  window.start = NowSeconds();
  generator_->PauseEdits(true);
  const size_t first = options_.edit_connection ? 1 : 0;
  for (size_t sent = 0; sent < count;) {
    while (sent < count) {
      if (!held_) held_ = generator_->Next();
      size_t target = 0;
      if (!held_->is_edit) {
        // The least-loaded request connection.
        target = first;
        for (size_t c = first; c < conns_.size(); ++c) {
          if (conns_[c]->outstanding < conns_[target]->outstanding) target = c;
        }
      }
      if (conns_[target]->outstanding >= kClosedDepth) break;
      Send(Phase::kClosed, std::move(*held_), target, NowSeconds());
      held_.reset();
      ++sent;
    }
    TPP_RETURN_IF_ERROR(Pump(NowSeconds() + 0.01));
  }
  window.last_send = NowSeconds();
  generator_->PauseEdits(false);
  return Drain(Phase::kClosed);
}

Status LoadGenerator::RunOpen(Phase phase, double rps, double seconds) {
  schedule_state_ =
      tpp::SplitMix64(options_.seed * 131 + static_cast<uint64_t>(phase));
  auto gap = [&] {
    const double u =
        static_cast<double>(tpp::SplitMix64(schedule_state_++) >> 11) *
        0x1.0p-53;
    return -std::log(1.0 - u) / rps;
  };
  const double start = NowSeconds();
  windows_[static_cast<size_t>(phase)].start = start;
  const double end = start + seconds;
  double due = start + gap();
  while (due < end) {
    while (due < end && due <= NowSeconds()) {
      if (!held_) held_ = generator_->Next();
      const size_t target = held_->is_edit ? 0 : RequestConn();
      Send(phase, std::move(*held_), target, due);
      held_.reset();
      due += gap();
    }
    if (due >= end) break;
    TPP_RETURN_IF_ERROR(Pump(due));
  }
  windows_[static_cast<size_t>(phase)].last_send = NowSeconds();
  return Drain(phase);
}

}  // namespace servebench
