// Concurrency behavior of the event-driven confmaskd connection manager.
//
// The headline regression here: the old daemon accepted one connection at a
// time and served it to completion, so a single idle client (someone sitting
// in `nc -U <socket>`) wedged every other client. These tests pin the fix:
// an idle connection delays nobody, many clients interleave freely, the
// subscribe verb streams phase events in pipeline order, and the protocol
// limits (line-length cap, idle timeout) close abusive connections without
// collateral damage. Run under TSan in CI to exercise the cross-thread
// publish path (scheduler worker threads -> poll loop wake pipe).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/client.hpp"
#include "src/service/daemon.hpp"
#include "src/service/json_line.hpp"

#if defined(CONFMASK_FAULT_INJECTION)
#include "tests/fault_injection.hpp"
#include "src/util/io_shim.hpp"
#endif

namespace confmask {
namespace {

namespace fs = std::filesystem;

std::string unique_socket(const std::string& tag) {
  return "/tmp/confmaskd_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

fs::path fresh_cache_dir(const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("confmask_conc_" + tag + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

// Blocks until the daemon answers a stats roundtrip (or ~5s elapse).
bool await_up(const std::string& endpoint) {
  const std::string stats_line = JsonWriter{}.string("op", "stats").str();
  for (int i = 0; i < 250; ++i) {
    if (client_roundtrip(endpoint, stats_line)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// A raw connected fd with no protocol traffic — the `nc -U` stand-in.
int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string submit_line(std::uint64_t seed) {
  return JsonWriter{}
      .string("op", "submit")
      .string("configs", canonical_config_set_text(make_figure2()))
      .number("k_r", 2)
      .number("k_h", 2)
      .number_u64("seed", seed)
      .str();
}

// Drives one job to a terminal state via status polling; returns the final
// state string ("done"/"failed"/"cancelled"), or nullopt on transport error.
std::optional<std::string> wait_terminal(const std::string& endpoint,
                                         std::uint64_t job) {
  const std::string status_line =
      JsonWriter{}.string("op", "status").number_u64("job", job).str();
  for (int i = 0; i < 2'000; ++i) {
    const auto response = client_roundtrip(endpoint, status_line);
    if (!response) return std::nullopt;
    const auto parsed = parse_json_line(*response);
    if (!parsed) return std::nullopt;
    const auto state = get_string(*parsed, "state");
    if (!state) return std::nullopt;
    if (*state == "done" || *state == "failed" || *state == "cancelled") {
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return std::nullopt;
}

void request_shutdown(const std::string& endpoint) {
  (void)client_roundtrip(
      endpoint, "{\"op\": \"shutdown\", \"mode\": \"cancel\"}");
}

// The pinned head-of-line regression: a client that connects and then says
// nothing must not delay a concurrent submit/result cycle. The pre-fix
// daemon handled connections serially, so this test would hang at the first
// roundtrip below until the idle fd closed.
TEST(DaemonConcurrency, IdleClientDoesNotBlockConcurrentSubmit) {
  const std::string socket_path = unique_socket("idle");
  const fs::path cache_dir = fresh_cache_dir("idle");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  const int idle_fd = raw_connect(socket_path);
  ASSERT_GE(idle_fd, 0);
  // Give the poll loop a moment to accept the idle connection so the
  // regression actually exercises an established-but-silent peer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto submitted = client_roundtrip(socket_path, submit_line(1),
                                          static_cast<std::string*>(nullptr),
                                          /*receive_timeout_ms=*/10'000);
  ASSERT_TRUE(submitted.has_value())
      << "submit stalled behind an idle connection";
  const auto parsed = parse_json_line(*submitted);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(get_bool(*parsed, "ok"), true);
  const auto job = get_u64(*parsed, "job");
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(wait_terminal(socket_path, *job), "done");

  const auto result = client_roundtrip(
      socket_path,
      JsonWriter{}.string("op", "result").number_u64("job", *job).str(),
      static_cast<std::string*>(nullptr), /*receive_timeout_ms=*/10'000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(get_bool(*parse_json_line(*result), "ok"), true);

  ::close(idle_fd);
  request_shutdown(socket_path);
  server.join();
  fs::remove_all(cache_dir);
}

// Many clients interleaving submit/status/result/ping concurrently. Seeds
// repeat across threads so the artifact cache serves most of them — the
// point is protocol interleaving, not pipeline throughput.
TEST(DaemonConcurrency, ManyConcurrentClientsInterleave) {
  const std::string socket_path = unique_socket("many");
  const fs::path cache_dir = fresh_cache_dir("many");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  constexpr int kClients = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto submitted =
          client_roundtrip(socket_path, submit_line(1 + (c % 4)));
      if (!submitted) {
        failures.fetch_add(1);
        return;
      }
      const auto parsed = parse_json_line(*submitted);
      const auto job = parsed ? get_u64(*parsed, "job") : std::nullopt;
      if (!job || get_bool(*parsed, "ok") != true) {
        failures.fetch_add(1);
        return;
      }
      if (!client_roundtrip(socket_path, "{\"op\": \"ping\"}")) {
        failures.fetch_add(1);
        return;
      }
      if (wait_terminal(socket_path, *job) != "done") {
        failures.fetch_add(1);
        return;
      }
      const auto result = client_roundtrip(
          socket_path, JsonWriter{}
                           .string("op", "result")
                           .number_u64("job", *job)
                           .str());
      if (!result || get_bool(*parse_json_line(*result), "ok") != true) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  request_shutdown(socket_path);
  server.join();
  fs::remove_all(cache_dir);
}

// subscribe streams the job's lifecycle: ack, a "running" state event,
// pipeline phase spans in execution order, then exactly one terminal state
// event after which the server closes the stream. The job is queued behind
// a single-slot scheduler so the subscription is registered before the
// pipeline starts.
TEST(DaemonConcurrency, SubscribeStreamsPhaseEventsInOrder) {
  const std::string socket_path = unique_socket("subscribe");
  const fs::path cache_dir = fresh_cache_dir("subscribe");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  options.max_concurrent_jobs = 1;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  // Occupy the single pipeline slot with a slower network, then queue the
  // job we subscribe to.
  const std::string blocker_line =
      JsonWriter{}
          .string("op", "submit")
          .string("configs", canonical_config_set_text(make_enterprise()))
          .number("k_r", 2)
          .number("k_h", 2)
          .number_u64("seed", 77)
          .str();
  const auto blocker = client_roundtrip(socket_path, blocker_line);
  ASSERT_TRUE(blocker.has_value());
  const auto blocker_job = get_u64(*parse_json_line(*blocker), "job");
  ASSERT_TRUE(blocker_job.has_value());

  const auto submitted = client_roundtrip(socket_path, submit_line(42));
  ASSERT_TRUE(submitted.has_value());
  const auto job = get_u64(*parse_json_line(*submitted), "job");
  ASSERT_TRUE(job.has_value());

  std::vector<std::string> lines;
  const bool streamed = client_stream(
      socket_path,
      JsonWriter{}.string("op", "subscribe").number_u64("job", *job).str(),
      [&lines](const std::string& line) {
        lines.push_back(line);
        return true;  // consume until the server closes the stream
      },
      nullptr, /*receive_timeout_ms=*/60'000);
  ASSERT_TRUE(streamed);
  ASSERT_GE(lines.size(), 3u) << "expected ack + events, got "
                              << lines.size() << " lines";

  // First line: the subscribe ack.
  const auto ack = parse_json_line(lines.front());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(get_bool(*ack, "ok"), true);
  EXPECT_EQ(get_string(*ack, "op"), "subscribe");

  // Walk the stream: record state events and top-level phase spans.
  std::vector<std::string> states;
  std::vector<std::string> phases;
  const std::string job_tag = "job-" + std::to_string(*job);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto event = parse_json_line(lines[i]);
    if (!event) continue;  // span_end lines carry nested counters
    if (get_string(*event, "type") == "state") {
      EXPECT_EQ(get_u64(*event, "job"), *job);
      states.push_back(std::string(*get_string(*event, "state")));
    } else if (get_string(*event, "type") == "span_begin" &&
               get_int(*event, "parent") == 0) {
      EXPECT_EQ(get_string(*event, "job"), job_tag);
      phases.push_back(std::string(*get_string(*event, "path")));
    }
  }

  // State events: "running" first (published before the trace begins), one
  // terminal "done" last, nothing after it.
  ASSERT_GE(states.size(), 2u);
  EXPECT_EQ(states.front(), "running");
  EXPECT_EQ(states.back(), "done");
  EXPECT_EQ(std::count(states.begin(), states.end(), "done"), 1);

  // Phase spans arrive in pipeline order.
  const std::vector<std::string> expected = {
      "preprocess", "topology_anon", "route_equivalence", "route_anonymity",
      "verification"};
  std::size_t cursor = 0;
  for (const auto& want : expected) {
    bool found = false;
    for (; cursor < phases.size(); ++cursor) {
      if (phases[cursor] == want) {
        found = true;
        ++cursor;
        break;
      }
    }
    ASSERT_TRUE(found) << "phase " << want << " missing or out of order";
  }

  EXPECT_EQ(wait_terminal(socket_path, *blocker_job), "done");
  request_shutdown(socket_path);
  server.join();
  fs::remove_all(cache_dir);
}

// Oversized request lines are rejected with a loud error and the connection
// is closed — both for a newline-terminated line over the cap and for an
// unterminated flood that exceeds the cap before any newline arrives.
TEST(DaemonConcurrency, LineLengthCapRejectsOversizedRequests) {
  const std::string socket_path = unique_socket("linecap");
  const fs::path cache_dir = fresh_cache_dir("linecap");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  options.max_line_bytes = 1'024;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  for (const bool terminated : {true, false}) {
    const int fd = raw_connect(socket_path);
    ASSERT_GE(fd, 0);
    std::string flood(2'000, 'x');
    if (terminated) flood.push_back('\n');
    ASSERT_EQ(::write(fd, flood.data(), flood.size()),
              static_cast<ssize_t>(flood.size()));

    std::string received;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;  // server closes after the error
      received.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(received.find("exceeds"), std::string::npos)
        << "terminated=" << terminated << " got: " << received;
    const auto error =
        parse_json_line(received.substr(0, received.find('\n')));
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(get_bool(*error, "ok"), false);
  }

  // A well-behaved client on the same daemon still works.
  EXPECT_TRUE(client_roundtrip(socket_path, "{\"op\": \"ping\"}").has_value());

  request_shutdown(socket_path);
  server.join();
  fs::remove_all(cache_dir);
}

// Connections silent past the idle budget are reaped.
TEST(DaemonConcurrency, IdleTimeoutClosesSilentConnection) {
  const std::string socket_path = unique_socket("idletimeout");
  const fs::path cache_dir = fresh_cache_dir("idletimeout");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  options.idle_timeout_ms = 100;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  const int fd = raw_connect(socket_path);
  ASSERT_GE(fd, 0);
  const auto start = std::chrono::steady_clock::now();
  char buf[64];
  const ssize_t n = ::read(fd, buf, sizeof buf);  // blocks until server close
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(n, 0) << "expected EOF from idle reap";
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ::close(fd);

  // Active clients are unaffected by the short idle budget.
  EXPECT_TRUE(client_roundtrip(socket_path, "{\"op\": \"ping\"}").has_value());

  request_shutdown(socket_path);
  server.join();
  fs::remove_all(cache_dir);
}

// Startup safety around the socket path: a live daemon's socket is never
// stolen, a genuinely stale socket is reclaimed, and a non-socket file at
// the path is refused and left intact.
TEST(DaemonConcurrency, RefusesLiveSocketAndReclaimsStale) {
  const std::string socket_path = unique_socket("stale");
  const fs::path cache_dir = fresh_cache_dir("stale");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  // A second daemon on the same path must refuse to start — and must not
  // unlink the live socket out from under the first.
  Daemon::Options second_options;
  second_options.socket_path = socket_path;
  second_options.cache_dir = fresh_cache_dir("stale2");
  Daemon second(second_options);
  EXPECT_EQ(second.run(), 1);
  EXPECT_TRUE(client_roundtrip(socket_path, "{\"op\": \"ping\"}").has_value())
      << "first daemon lost its socket to the second";

  request_shutdown(socket_path);
  server.join();

  // Leave a stale socket file behind (bound once, listener long gone), and
  // verify a fresh daemon reclaims it.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)), 0);
    ::close(fd);
  }
  Daemon revived(options);
  std::thread revived_server([&revived] { EXPECT_EQ(revived.run(), 0); });
  ASSERT_TRUE(await_up(socket_path)) << "stale socket was not reclaimed";
  request_shutdown(socket_path);
  revived_server.join();

  // A regular file at the socket path is refused and preserved.
  const std::string file_path = socket_path + ".notasock";
  {
    std::FILE* f = std::fopen(file_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("precious\n", f);
    std::fclose(f);
  }
  Daemon::Options file_options;
  file_options.socket_path = file_path;
  file_options.cache_dir = fresh_cache_dir("stale3");
  Daemon refuser(file_options);
  EXPECT_EQ(refuser.run(), 1);
  EXPECT_TRUE(fs::exists(file_path)) << "daemon deleted a non-socket file";
  fs::remove(file_path);
  fs::remove_all(cache_dir);
}

// The client-side receive timeout: a server that accepts the connection (via
// the listen backlog) but never answers yields a typed kReceive failure with
// the timeout in the detail, instead of blocking forever.
TEST(DaemonConcurrency, ReceiveTimeoutIsTyped) {
  const std::string socket_path = unique_socket("rcvtimeo");
  // Bind and listen but never accept: AF_UNIX connect() succeeds as long as
  // the backlog has room, so the client gets a connected, silent peer.
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);

  TransportError error;
  const auto start = std::chrono::steady_clock::now();
  const auto response = client_roundtrip(socket_path, "{\"op\": \"ping\"}",
                                         &error, /*receive_timeout_ms=*/100);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(error.failure, TransportFailure::kReceive);
  EXPECT_NE(error.detail.find("receive_timeout_ms"), std::string::npos)
      << error.detail;
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  ::close(listen_fd);
  ::unlink(socket_path.c_str());
}

// The TCP listener serves the same protocol through the same connection
// manager; the unix socket keeps working alongside it.
TEST(DaemonConcurrency, TcpListenerServesSameProtocol) {
  const std::string socket_path = unique_socket("tcp");
  const fs::path cache_dir = fresh_cache_dir("tcp");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  options.listen_address = "127.0.0.1:0";  // ephemeral port
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  std::uint16_t port = 0;
  for (int i = 0; i < 250 && port == 0; ++i) {
    port = daemon.tcp_port();
    if (port == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_NE(port, 0) << "daemon never bound its TCP listener";
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);

  const auto pong = client_roundtrip(endpoint, "{\"op\": \"ping\"}");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(get_bool(*parse_json_line(*pong), "ok"), true);

  const auto submitted = client_roundtrip(endpoint, submit_line(5));
  ASSERT_TRUE(submitted.has_value());
  const auto job = get_u64(*parse_json_line(*submitted), "job");
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(wait_terminal(endpoint, *job), "done");

  // Unix clients are unaffected by TCP traffic.
  EXPECT_TRUE(client_roundtrip(socket_path, "{\"op\": \"ping\"}").has_value());

  request_shutdown(socket_path);
  server.join();
  fs::remove_all(cache_dir);
}

#if defined(CONFMASK_FAULT_INJECTION)
// Both sides of the wire go through the io shim, so injected short reads and
// EINTR storms are absorbed by the retry loops instead of corrupting frames.
TEST(DaemonConcurrency, RoundtripSurvivesShortReadsAndEintr) {
  const std::string socket_path = unique_socket("fault");
  const fs::path cache_dir = fresh_cache_dir("fault");

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(socket_path));

  {
    ScopedFault short_reads(io::kFaultShortRead, 1'000);
    const auto pong = client_roundtrip(socket_path, "{\"op\": \"ping\"}");
    ASSERT_TRUE(pong.has_value()) << "short reads broke the roundtrip";
    EXPECT_EQ(get_bool(*parse_json_line(*pong), "ok"), true);
  }
  {
    ScopedFault eintr(io::kFaultEintr, 64);
    const auto pong = client_roundtrip(socket_path, "{\"op\": \"ping\"}");
    ASSERT_TRUE(pong.has_value()) << "EINTR storm broke the roundtrip";
    EXPECT_EQ(get_bool(*parse_json_line(*pong), "ok"), true);
  }

  request_shutdown(socket_path);
  server.join();
  fs::remove_all(cache_dir);
}
#endif  // CONFMASK_FAULT_INJECTION

}  // namespace
}  // namespace confmask
