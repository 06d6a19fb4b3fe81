#include "src/service/connection_manager.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "src/util/io_shim.hpp"
#include "src/util/json_writer.hpp"
#include "src/util/observability.hpp"

namespace confmask {

namespace {

/// Grace budget for flushing queued responses once shutdown is requested:
/// long enough for any socket buffer to drain, short enough that a peer
/// that stopped reading cannot hold the process hostage.
constexpr std::uint64_t kShutdownFlushGraceNs = 2'000'000'000ULL;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool would_block() { return errno == EAGAIN || errno == EWOULDBLOCK; }

/// The last response on a connection whose request line is over the cap.
std::string overflow_response(std::size_t max_line_bytes) {
  return JsonWriter{}
      .boolean("ok", false)
      .string("error", "request line exceeds " +
                           std::to_string(max_line_bytes) + " bytes")
      .str();
}

}  // namespace

ConnectionServer::ConnectionServer(std::vector<int> listen_fds,
                                   Options options)
    : listen_fds_(std::move(listen_fds)), options_(options) {
  for (const int fd : listen_fds_) set_nonblocking(fd);
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) == 0) {
    set_nonblocking(pipe_fds[0]);
    set_nonblocking(pipe_fds[1]);
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
  }
}

ConnectionServer::~ConnectionServer() {
  for (const auto& [fd, conn] : connections_) {
    (void)conn;
    ::close(fd);
  }
  for (const int fd : listen_fds_) ::close(fd);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void ConnectionServer::set_line_handler(LineHandler handler) {
  handler_ = std::move(handler);
}

void ConnectionServer::set_subscribe_probe(SubscribeProbe probe) {
  subscribe_probe_ = std::move(probe);
}

void ConnectionServer::set_tick_hook(TickHook hook) {
  tick_hook_ = std::move(hook);
}

void ConnectionServer::publish(std::uint64_t job, std::string line,
                               bool end_of_stream) {
  // No subscribers, nothing to do: one relaxed load keeps the per-span
  // cost of an unwatched daemon negligible. A subscriber that registers
  // concurrently may miss this line; the terminal event can never be
  // missed because the subscribe probe re-checks job state after
  // registration.
  if (subscriber_count_.load(std::memory_order_acquire) == 0) return;
  {
    const std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back(Event{job, std::move(line), end_of_stream});
  }
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    (void)!io::write_some(wake_write_fd_, &byte, 1);
  }
}

int ConnectionServer::run(const std::atomic<bool>& stop) {
  std::vector<pollfd> fds;
  std::uint64_t grace_deadline_ns = 0;
  for (;;) {
    if (stop.load(std::memory_order_acquire)) shutting_down_ = true;
    if (shutting_down_) {
      if (grace_deadline_ns == 0) {
        grace_deadline_ns = obs::monotonic_ns() + kShutdownFlushGraceNs;
      }
      bool pending = false;
      for (const auto& [fd, conn] : connections_) {
        (void)fd;
        if (!conn.out_buf.empty()) pending = true;
      }
      if (!pending || obs::monotonic_ns() >= grace_deadline_ns) break;
    }

    fds.clear();
    if (!shutting_down_) {
      for (const int fd : listen_fds_) {
        fds.push_back(pollfd{fd, POLLIN, 0});
      }
    }
    if (wake_read_fd_ >= 0) fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    const std::size_t first_conn = fds.size();
    for (const auto& [fd, conn] : connections_) {
      short events = 0;
      if (!shutting_down_ && !conn.overflowed) events |= POLLIN;
      if (!conn.out_buf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (ready < 0 && errno != EINTR) break;

    if (tick_hook_) tick_hook_();

    // Drain the wake pipe (level-triggered: one byte per publish burst).
    if (wake_read_fd_ >= 0) {
      char sink[256];
      while (io::read_some(wake_read_fd_, sink, sizeof sink) > 0) {
      }
    }
    // Deliver queued events every iteration, polled or not: a subscribe
    // registered this iteration must see events its probe enqueued.
    drain_events();

    if (ready > 0) {
      for (std::size_t i = 0; i < first_conn; ++i) {
        if ((fds[i].revents & POLLIN) != 0 && fds[i].fd != wake_read_fd_) {
          accept_ready(fds[i].fd);
        }
      }
      for (std::size_t i = first_conn; i < fds.size(); ++i) {
        const int fd = fds[i].fd;
        const short revents = fds[i].revents;
        if (revents == 0) continue;
        if (connections_.find(fd) == connections_.end()) continue;
        if ((revents & POLLIN) != 0) read_ready(fd);
        if (connections_.find(fd) == connections_.end()) continue;
        if ((revents & POLLOUT) != 0) flush(fd);
        if (connections_.find(fd) == connections_.end()) continue;
        if ((revents & (POLLERR | POLLNVAL)) != 0 ||
            ((revents & POLLHUP) != 0 && (revents & POLLIN) == 0)) {
          close_connection(fd);
        }
      }
    }
    drain_events();  // events published by handlers/probes this iteration
    sweep_idle();
  }

  for (auto it = connections_.begin(); it != connections_.end();) {
    const int fd = it->first;
    ++it;
    close_connection(fd);
  }
  return 0;
}

void ConnectionServer::accept_ready(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient accept failure
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.last_activity_ns = obs::monotonic_ns();
    connections_.emplace(fd, std::move(conn));
  }
}

void ConnectionServer::read_ready(int fd) {
  Connection& conn = connections_.at(fd);
  char chunk[1 << 16];
  // Bounded reads per poll round: one peer streaming at full rate must not
  // starve its siblings inside a single iteration.
  for (int round = 0; round < 16; ++round) {
    const ssize_t n = io::read_some(fd, chunk, sizeof chunk);
    if (n == 0) {  // peer closed
      close_connection(fd);
      return;
    }
    if (n < 0) {
      if (would_block()) break;
      close_connection(fd);
      return;
    }
    conn.last_activity_ns = obs::monotonic_ns();
    if (conn.overflowed || conn.close_after_flush) continue;  // discard
    conn.in_buf.append(chunk, static_cast<std::size_t>(n));
    process_lines(fd);
    if (connections_.find(fd) == connections_.end()) return;
    if (static_cast<std::size_t>(n) < sizeof chunk) break;
  }
}

void ConnectionServer::process_lines(int fd) {
  // connections_ is a std::map, so the reference survives queue_output's
  // eager flush — unless THIS fd gets closed (write error, buffer overflow,
  // or close_after_flush draining). Re-check liveness after every
  // queue_output and bail out; flags must be set BEFORE queueing so the
  // eager flush can complete the close immediately.
  Connection& conn = connections_.at(fd);
  std::size_t start = 0;
  for (std::size_t newline = conn.in_buf.find('\n', start);
       newline != std::string::npos;
       newline = conn.in_buf.find('\n', start)) {
    const std::string line = conn.in_buf.substr(start, newline - start);
    start = newline + 1;
    if (line.size() > options_.max_line_bytes) {
      conn.close_after_flush = true;
      conn.overflowed = true;  // stop reading from an abusive peer
      queue_output(fd, overflow_response(options_.max_line_bytes));
      return;
    }
    LineOutcome outcome = handler_(line);
    if (outcome.close) conn.close_after_flush = true;
    if (outcome.shutdown) shutting_down_ = true;
    queue_output(fd, outcome.response);
    if (connections_.find(fd) == connections_.end()) return;  // closed
    if (outcome.subscribe.has_value()) {
      if (conn.subscribed) unsubscribe(fd);  // newest subscription wins
      conn.subscribed = true;
      conn.job = *outcome.subscribe;
      subscribers_[conn.job].push_back(fd);
      subscriber_count_.fetch_add(1, std::memory_order_release);
      if (subscribe_probe_) subscribe_probe_(conn.job);
    }
    if (conn.close_after_flush || outcome.shutdown) break;
  }
  conn.in_buf.erase(0, start);
  // A partial line beyond the cap will never complete: reject it now
  // instead of buffering toward it forever.
  if (!conn.close_after_flush && conn.in_buf.size() > options_.max_line_bytes) {
    conn.close_after_flush = true;
    conn.overflowed = true;
    conn.in_buf.clear();
    queue_output(fd, overflow_response(options_.max_line_bytes));
  }
}

void ConnectionServer::queue_output(int fd, std::string_view line) {
  Connection& conn = connections_.at(fd);
  if (conn.out_buf.size() + line.size() + 1 > options_.max_buffered_bytes) {
    // The peer stopped reading while output kept accumulating; there is no
    // way to even tell it so. Cut it loose.
    close_connection(fd);
    return;
  }
  conn.out_buf.append(line);
  conn.out_buf.push_back('\n');
  flush(fd);  // eager: the common case fits the socket buffer in one write
}

void ConnectionServer::flush(int fd) {
  Connection& conn = connections_.at(fd);
  while (!conn.out_buf.empty()) {
    const ssize_t n =
        io::write_some(fd, conn.out_buf.data(), conn.out_buf.size());
    if (n < 0) {
      if (would_block()) return;  // POLLOUT resumes this
      close_connection(fd);
      return;
    }
    conn.out_buf.erase(0, static_cast<std::size_t>(n));
  }
  if (conn.close_after_flush) close_connection(fd);
}

void ConnectionServer::unsubscribe(int fd) {
  Connection& conn = connections_.at(fd);
  if (!conn.subscribed) return;
  auto it = subscribers_.find(conn.job);
  if (it != subscribers_.end()) {
    auto& list = it->second;
    for (auto entry = list.begin(); entry != list.end(); ++entry) {
      if (*entry == fd) {
        list.erase(entry);
        break;
      }
    }
    if (list.empty()) subscribers_.erase(it);
  }
  conn.subscribed = false;
  subscriber_count_.fetch_sub(1, std::memory_order_release);
}

void ConnectionServer::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  unsubscribe(fd);
  ::close(fd);
  connections_.erase(it);
}

void ConnectionServer::drain_events() {
  std::deque<Event> batch;
  {
    const std::lock_guard<std::mutex> lock(events_mutex_);
    batch.swap(events_);
  }
  for (Event& event : batch) {
    const auto it = subscribers_.find(event.job);
    if (it == subscribers_.end()) continue;
    // queue_output/close mutate the subscriber list; walk a snapshot.
    const std::vector<int> targets = it->second;
    for (const int fd : targets) {
      if (connections_.find(fd) == connections_.end()) continue;
      queue_output(fd, event.line);
      if (event.end_of_stream) {
        const auto conn = connections_.find(fd);
        if (conn != connections_.end()) {
          unsubscribe(fd);
          conn->second.close_after_flush = true;
          if (conn->second.out_buf.empty()) close_connection(fd);
        }
      }
    }
  }
}

void ConnectionServer::sweep_idle() {
  if (options_.idle_timeout_ms == 0) return;
  const std::uint64_t now = obs::monotonic_ns();
  const std::uint64_t budget = options_.idle_timeout_ms * 1'000'000ULL;
  for (auto it = connections_.begin(); it != connections_.end();) {
    const int fd = it->first;
    const Connection& conn = it->second;
    ++it;
    if (conn.subscribed || !conn.out_buf.empty()) continue;
    if (now - conn.last_activity_ns > budget) close_connection(fd);
  }
}

}  // namespace confmask
