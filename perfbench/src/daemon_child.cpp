#include "perfbench/src/daemon_child.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/service/client.hpp"

namespace perfbench {

namespace {

/// Bound on any single reply; a daemon that stays silent this long has
/// hung, and the run must still end within its time limit.
constexpr std::uint32_t kReplyTimeoutMs = 60'000;

std::string read_log(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Waits up to `timeout_ms` for `pid` to exit (pidfd + poll, no sleeping
/// loop); true when it was reaped.
bool wait_exit(pid_t pid, int timeout_ms) {
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd >= 0) {
    pollfd entry{pidfd, POLLIN, 0};
    int ready = 0;
    do {
      ready = ::poll(&entry, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    ::close(pidfd);
    if (ready <= 0) return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return true;
  }
  return true;
}

}  // namespace

DaemonChild::DaemonChild(const fs::path& binary, const fs::path& dir) {
  fs::create_directories(dir);
  socket_ = (dir / "d.sock").string();
  cache_dir_ = dir / "cache";
  journal_ = dir / "journal.ndjson";
  const fs::path log = dir / "daemon.log";

  const std::string binary_text = binary.string();
  const std::string cache_text = cache_dir_.string();
  const std::string journal_text = journal_.string();
  std::vector<const char*> argv{binary_text.c_str(), "--socket",
                                socket_.c_str(),     "--cache-dir",
                                cache_text.c_str(),  "--journal",
                                journal_text.c_str(), nullptr};

  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  const int log_fd =
      ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the benchmark, whatever ends the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(null_fd, 0);
    ::dup2(out_pipe[1], 1);
    ::dup2(log_fd, 2);
    ::execv(argv[0], const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  ::close(log_fd);
  ::close(null_fd);
  if (pid_ < 0) {
    ::close(out_pipe[0]);
    throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  }
  stdout_fd_ = out_pipe[0];

  // Block on the child's stdout until the socket is listening.
  std::string seen;
  char chunk[512];
  while (seen.find("serving on") == std::string::npos) {
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      stop(false);
      throw std::runtime_error("confmaskd exited before serving: " +
                               read_log(log));
    }
    seen.append(chunk, static_cast<std::size_t>(n));
  }
  drain_ = std::thread([fd = stdout_fd_] {
    char sink[512];
    for (;;) {
      const ssize_t n = ::read(fd, sink, sizeof sink);
      if (n > 0 || (n < 0 && errno == EINTR)) continue;
      return;
    }
  });

  // Ready = first answered ping (sent after the scrub and the replay).
  WireBytes wire;
  const auto ping = request(socket_, "{\"op\": \"ping\"}", wire);
  if (!confmask::get_bool(ping, "ok").value_or(false)) {
    stop(false);
    throw std::runtime_error("confmaskd ping failed");
  }
}

DaemonChild::~DaemonChild() { stop(false); }

void DaemonChild::shutdown() { stop(true); }

void DaemonChild::stop(bool graceful) {
  if (pid_ > 0) {
    bool exited = false;
    if (graceful) {
      std::string error;
      (void)confmask::client_roundtrip(
          socket_, "{\"op\": \"shutdown\", \"mode\": \"drain\"}", &error,
          kReplyTimeoutMs);
      exited = wait_exit(pid_, 30'000);
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      (void)wait_exit(pid_, 30'000);
    }
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

confmask::JsonObject request(const std::string& endpoint,
                             const std::string& line, WireBytes& wire) {
  confmask::TransportError error;
  const auto response =
      confmask::client_roundtrip(endpoint, line, &error, kReplyTimeoutMs);
  if (!response) {
    throw std::runtime_error(std::string("transport: ") +
                             confmask::to_string(error.failure) + ": " +
                             error.detail);
  }
  wire.sent += line.size() + 1;
  wire.received += response->size() + 1;
  auto parsed = confmask::parse_json_line(*response);
  if (!parsed) throw std::runtime_error("unparsable reply: " + *response);
  return *parsed;
}

ServeOp run_serve_op(const std::string& endpoint,
                     const std::string& request_line, bool parse_spans) {
  ServeOp op;
  op.start = Clock::now();
  const auto ack = request(endpoint, request_line, op.wire);
  const auto job = confmask::get_u64(ack, "job");
  if (!confmask::get_bool(ack, "ok").value_or(false) || !job) {
    throw std::runtime_error("submit refused: " +
                             confmask::get_string(ack, "error").value_or("?"));
  }
  op.cache_key = confmask::get_string(ack, "cache_key").value_or("");
  op.acked = Clock::now();

  const std::string job_text = std::to_string(*job);
  const std::string subscribe =
      "{\"op\": \"subscribe\", \"job\": " + job_text + "}";
  op.wire.sent += subscribe.size() + 1;
  std::string state;
  confmask::TransportError error;
  const bool streamed = confmask::client_stream(
      endpoint, subscribe,
      [&](const std::string& line) {
        op.wire.received += line.size() + 1;
        // Span lines carry a nested counters object, so only flat lines
        // (state events, trace_begin) parse.
        const auto event = confmask::parse_json_line(line);
        if (!event ||
            confmask::get_string(*event, "type").value_or("") != "state") {
          if (parse_spans) op.stages.add_line(line);
          return true;
        }
        state = confmask::get_string(*event, "state").value_or("");
        op.patched = confmask::get_bool(*event, "patched").value_or(false);
        return state == "queued" || state == "running";
      },
      &error, kReplyTimeoutMs);
  if (!streamed || state.empty() || state == "queued" || state == "running") {
    throw std::runtime_error("subscribe stream ended without a terminal "
                             "state (" + std::string(confmask::to_string(
                                 error.failure)) + ")");
  }
  op.terminal = Clock::now();

  const auto result = request(
      endpoint, "{\"op\": \"result\", \"job\": " + job_text + "}", op.wire);
  op.done = state == "done" &&
            confmask::get_string(result, "state").value_or("") == "done";
  op.configs = confmask::get_string(result, "configs").value_or("");
  op.diagnostics = confmask::get_string(result, "diagnostics").value_or("");
  op.end = Clock::now();
  return op;
}

confmask::JsonObject daemon_stats(const std::string& endpoint) {
  WireBytes wire;
  return request(endpoint, "{\"op\": \"stats\"}", wire);
}

std::uint64_t counter(const confmask::JsonObject& stats, const char* key) {
  return confmask::get_u64(stats, key).value_or(0);
}

double process_cpu_ms(int pid) {
  if (pid == 0) {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(usage.ru_utime) + ms(usage.ru_stime);
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  // Fields after the command: state is #3; utime and stime are #14, #15.
  double utime = 0;
  double stime = 0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_hwm_mb(int pid) {
  std::ifstream in("/proc/" + (pid == 0 ? std::string("self")
                                        : std::to_string(pid)) +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

bool reset_hwm(int pid) {
  std::ofstream out("/proc/" + (pid == 0 ? std::string("self")
                                         : std::to_string(pid)) +
                    "/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
