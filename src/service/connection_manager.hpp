// Event-driven multi-connection transport for confmaskd.
//
// The pre-concurrency daemon served exactly one connection at a time: a
// single idle client (`nc -U <socket>` sending nothing) parked the accept
// loop and wedged every other client — submits, status polls, even ping —
// indefinitely. ConnectionServer removes that head-of-line blocking with
// one poll(2) set over every listen fd (unix socket, optional TCP) and
// every live connection fd:
//
//  * Per-connection read buffers assemble newline-framed request lines;
//    complete lines go to the LineHandler (the protocol layer) and the
//    response is queued on a per-connection WRITE buffer, flushed as the
//    peer drains it (POLLOUT) — a slow reader stalls only itself.
//  * A line-length cap bounds per-connection memory: a request line that
//    exceeds it is answered with a loud error and the connection closed.
//  * An idle timeout reaps connections that sit silent without an active
//    subscription, so abandoned clients cannot accumulate forever.
//  * Teardown is always per-connection: read EOF, write error, cap or
//    timeout each close exactly one fd; the daemon never blocks on, or
//    dies with, any single peer.
//
// Streaming: a connection may SUBSCRIBE to a job (LineOutcome::subscribe).
// Worker threads publish() already-framed NDJSON event lines — per-stage
// pipeline phase spans and job state transitions — onto a mutex-guarded
// queue and wake the poll loop through a self-pipe; the loop fans each
// event out to that job's subscribers in publication order. An
// end_of_stream event (the job's terminal state) flushes and closes the
// subscriber. All connection state is owned by the loop thread; the only
// cross-thread surfaces are the event queue and the subscriber count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace confmask {

/// What the protocol layer tells the transport to do after one request
/// line: the response to queue, and any transport-level side effect.
struct LineOutcome {
  std::string response;  ///< one response line (newline appended on send)
  /// Attach this connection as a subscriber of the given job id. The
  /// response is queued first, so the ack precedes every event line.
  std::optional<std::uint64_t> subscribe;
  bool close = false;     ///< close the connection after flushing
  bool shutdown = false;  ///< stop the server after flushing everything
};

class ConnectionServer {
 public:
  struct Options {
    /// Reject any request line longer than this (bytes, newline excluded).
    /// Config bundles ride inside submit lines, so the default is generous.
    std::size_t max_line_bytes = 64u << 20;
    /// Drop a connection whose unflushed output exceeds this — a subscriber
    /// that stopped reading must not grow daemon memory without bound.
    std::size_t max_buffered_bytes = 64u << 20;
    /// Close connections idle (no request activity) this long. Subscribed
    /// connections are exempt: waiting for events is their job. 0 = never.
    std::uint64_t idle_timeout_ms = 60'000;
    /// Upper bound on one poll(2) wait; the stop flag and idle deadlines
    /// are re-checked at least this often.
    int poll_interval_ms = 100;
  };

  using LineHandler = std::function<LineOutcome(std::string_view line)>;
  /// Called (on the loop thread) right after a subscription is registered —
  /// the daemon uses it to synthesize the terminal event for jobs that
  /// finished before the subscribe arrived, closing the missed-event race.
  using SubscribeProbe = std::function<void(std::uint64_t job)>;
  /// Called (on the loop thread) once per poll iteration — at least every
  /// poll_interval_ms even when no fd is ready. The daemon hangs deferred
  /// signal work here (SIGHUP quota reload): the handler itself only flips
  /// an atomic, and the tick applies it outside signal context. Must be
  /// cheap on the idle path.
  using TickHook = std::function<void()>;

  /// Takes ownership of `listen_fds` (closed on destruction). The fds must
  /// already be bound + listening; they are switched to non-blocking here.
  ConnectionServer(std::vector<int> listen_fds, Options options);
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Both must be set before run(). The handler runs on the loop thread.
  void set_line_handler(LineHandler handler);
  void set_subscribe_probe(SubscribeProbe probe);
  /// Optional; see TickHook.
  void set_tick_hook(TickHook hook);

  /// Serves until `stop` becomes true or a handler outcome requests
  /// shutdown; then best-effort flushes pending output (bounded grace) and
  /// closes every connection. Returns 0.
  int run(const std::atomic<bool>& stop);

  /// Thread-safe: queues one already-framed NDJSON event line for every
  /// subscriber of `job` and wakes the loop. With `end_of_stream` the
  /// subscribers are flushed and closed after this line — the terminal
  /// event. Cheap when nobody subscribes (one relaxed load).
  void publish(std::uint64_t job, std::string line, bool end_of_stream);

 private:
  struct Connection {
    std::string in_buf;
    std::string out_buf;
    std::uint64_t last_activity_ns = 0;
    bool subscribed = false;
    std::uint64_t job = 0;
    bool close_after_flush = false;
    /// Line cap tripped: input is discarded until the close lands.
    bool overflowed = false;
  };

  struct Event {
    std::uint64_t job = 0;
    std::string line;
    bool end_of_stream = false;
  };

  void accept_ready(int listen_fd);
  void read_ready(int fd);
  void flush(int fd);
  void close_connection(int fd);
  void unsubscribe(int fd);
  void queue_output(int fd, std::string_view line);
  void process_lines(int fd);
  void drain_events();
  void sweep_idle();

  std::vector<int> listen_fds_;
  Options options_;
  LineHandler handler_;
  SubscribeProbe subscribe_probe_;
  TickHook tick_hook_;

  std::map<int, Connection> connections_;  ///< keyed by fd; loop thread only
  std::map<std::uint64_t, std::vector<int>> subscribers_;

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::mutex events_mutex_;
  std::deque<Event> events_;
  /// publish() fast path: skip queue + wake entirely while nobody listens.
  std::atomic<std::size_t> subscriber_count_{0};

  bool shutting_down_ = false;
};

}  // namespace confmask
