// confmaskd as a child process, and the client side of one serve op.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "src/service/json_line.hpp"

namespace perfbench {

/// Starts the shipped daemon with default flags plus --socket, --cache-dir
/// and --journal under `dir`. Ready means it answered `ping`: the
/// constructor blocks on the "serving on" stdout line (printed once the
/// socket listens) and then on the ping reply, which the daemon sends only
/// after its cache scrub and journal replay. No sleep-polling.
class DaemonChild {
 public:
  DaemonChild(const fs::path& binary, const fs::path& dir);
  ~DaemonChild();
  DaemonChild(const DaemonChild&) = delete;
  DaemonChild& operator=(const DaemonChild&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& endpoint() const { return socket_; }
  [[nodiscard]] const fs::path& cache_dir() const { return cache_dir_; }
  [[nodiscard]] const fs::path& journal() const { return journal_; }

  /// Asks for a drain shutdown and waits for the process to exit.
  void shutdown();

 private:
  void stop(bool graceful);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string socket_;
  fs::path cache_dir_;
  fs::path journal_;
  std::thread drain_;  ///< keeps reading the child's stdout until EOF
};

/// Wire accounting of one client.
struct WireBytes {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

/// One request line, one response line; throws on transport failure.
[[nodiscard]] confmask::JsonObject request(const std::string& endpoint,
                                           const std::string& line,
                                           WireBytes& wire);

/// What one serve op returned, with its three round trips timed.
struct ServeOp {
  bool done = false;       ///< terminal state was "done"
  bool patched = false;    ///< terminal state event: the run was patched
  std::string cache_key;   ///< key of the op's entry (from the ack)
  std::string configs;     ///< anonymized bundle from `result`
  std::string diagnostics;
  Clock::time_point start, acked, terminal, end;
  StageTotals stages;      ///< from the trace lines on the stream
  WireBytes wire;
};

/// submit/resubmit → subscribe until the terminal state event → result.
/// `request_line` is the full submit or resubmit line. Trace lines are
/// folded into `stages` only when `parse_spans`.
[[nodiscard]] ServeOp run_serve_op(const std::string& endpoint,
                                   const std::string& request_line,
                                   bool parse_spans);

/// The daemon's `stats` counters.
[[nodiscard]] confmask::JsonObject daemon_stats(const std::string& endpoint);

/// Unsigned counter `key` of a stats reply (0 when absent).
[[nodiscard]] std::uint64_t counter(const confmask::JsonObject& stats,
                                    const char* key);

}  // namespace perfbench
