#include "src/service/daemon.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "src/service/artifact_cache.hpp"
#include "src/service/client.hpp"
#include "src/service/connection_manager.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/job_scheduler.hpp"
#include "src/service/json_line.hpp"
#include "src/service/protocol.hpp"
#include "src/service/shard_ring.hpp"
#include "src/service/tenant.hpp"
#include "src/util/observability.hpp"

namespace confmask {

namespace {

/// Probe budget for "is someone already serving on this socket": long
/// enough for a healthy daemon to answer a ping, short enough that startup
/// is not hostage to a wedged one (which still means the socket is TAKEN).
constexpr std::uint32_t kProbeTimeoutMs = 1'000;

/// The NDJSON state-transition event pushed to subscribers, plus whether
/// it is terminal (ends the stream).
std::pair<std::string, bool> make_state_event(const JobStatus& status) {
  const bool terminal = status.state == JobState::kDone ||
                        status.state == JobState::kFailed ||
                        status.state == JobState::kCancelled;
  JsonWriter out;
  out.boolean("ok", true)
      .string("op", "event")
      .string("type", "state")
      .number_u64("job", status.id)
      .string("state", to_string(status.state))
      .string("tenant", status.tenant)
      .string("cache_key", status.cache_key)
      .boolean("cache_hit", status.cache_hit)
      .boolean("patched", status.patched);
  if (status.state == JobState::kFailed ||
      status.state == JobState::kCancelled) {
    out.string("error_stage", status.error_stage)
        .string("error_category", status.error_category)
        .string("error_message", status.error_message)
        .number("exit_code", status.exit_code);
  }
  return {out.str(), terminal};
}

/// SIGHUP ticket: the handler only bumps the counter (async-signal-safe);
/// each running daemon compares against the value it last consumed on its
/// poll tick. A counter, not a flag, so several in-process daemons (the
/// fleet tests) each observe one signal exactly once.
std::atomic<std::uint64_t> g_sighup_count{0};

extern "C" void confmaskd_on_sighup(int) {
  g_sighup_count.fetch_add(1, std::memory_order_relaxed);
}

/// Reads and parses the quota table at `path`. On any failure (unreadable
/// file, parse error) returns nullopt with the story in `error`.
std::optional<TenantTable> load_tenant_table(const std::filesystem::path& path,
                                             std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open tenants file: " + path.string();
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_tenant_table(text.str(), &error);
}

/// Splits "host:port" for --listen; accepts IPv4 literals, "localhost"
/// and "0.0.0.0"-style wildcards, numeric port (0 = ephemeral).
bool parse_listen_address(const std::string& address, in_addr& host,
                          std::uint16_t& port) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = colon + 1; i < address.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(address[i])) == 0) {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(address[i] - '0');
    if (value > 65'535) return false;
  }
  std::string name = address.substr(0, colon);
  if (name == "localhost") name = "127.0.0.1";
  if (::inet_pton(AF_INET, name.c_str(), &host) != 1) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

Daemon::Daemon(Options options) : options_(std::move(options)) {}

int Daemon::run() {
  // A client that disconnects between our read and our write would
  // otherwise SIGPIPE-kill the whole daemon; with SIGPIPE ignored, the
  // write fails with EPIPE and only that connection is dropped.
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGHUP, confmaskd_on_sighup);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "confmaskd: socket path too long (max %zu): %s\n",
                 sizeof(addr.sun_path) - 1, options_.socket_path.c_str());
    return 1;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  // Reclaim the socket path only when it is provably dead. Unlinking
  // unconditionally would let a second daemon silently steal a live
  // daemon's socket — every subsequent client would talk to the thief
  // while the original serves nobody.
  struct stat existing {};
  if (::lstat(options_.socket_path.c_str(), &existing) == 0) {
    if (!S_ISSOCK(existing.st_mode)) {
      std::fprintf(stderr,
                   "confmaskd: %s exists and is not a socket; refusing to "
                   "remove it\n",
                   options_.socket_path.c_str());
      return 1;
    }
    TransportError probe_error;
    const auto pong =
        client_roundtrip(options_.socket_path, R"({"op": "ping"})",
                         &probe_error, kProbeTimeoutMs);
    if (pong.has_value()) {
      std::fprintf(stderr,
                   "confmaskd: a live daemon already answers on %s; "
                   "refusing to start\n",
                   options_.socket_path.c_str());
      return 1;
    }
    if (probe_error.failure != TransportFailure::kConnect) {
      // Connected but no ping answer: SOMETHING holds the socket, even if
      // it is wedged. Taking it over would hide that failure.
      std::fprintf(stderr,
                   "confmaskd: %s is held by a process that did not answer "
                   "a ping (%s); refusing to start\n",
                   options_.socket_path.c_str(), probe_error.detail.c_str());
      return 1;
    }
    ::unlink(options_.socket_path.c_str());  // provably stale: reclaim
  }

  const int unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd < 0) {
    std::perror("confmaskd: socket");
    return 1;
  }
  if (::bind(unix_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    std::perror("confmaskd: bind");
    ::close(unix_fd);
    return 1;
  }
  if (::listen(unix_fd, 128) != 0) {
    std::perror("confmaskd: listen");
    ::close(unix_fd);
    ::unlink(options_.socket_path.c_str());
    return 1;
  }

  std::vector<int> listen_fds{unix_fd};
  if (!options_.listen_address.empty()) {
    in_addr host{};
    std::uint16_t port = 0;
    if (!parse_listen_address(options_.listen_address, host, port)) {
      std::fprintf(stderr, "confmaskd: invalid --listen address: %s\n",
                   options_.listen_address.c_str());
      ::close(unix_fd);
      ::unlink(options_.socket_path.c_str());
      return 1;
    }
    const int tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd < 0) {
      std::perror("confmaskd: tcp socket");
      ::close(unix_fd);
      ::unlink(options_.socket_path.c_str());
      return 1;
    }
    const int reuse = 1;
    ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
    sockaddr_in tcp_addr{};
    tcp_addr.sin_family = AF_INET;
    tcp_addr.sin_addr = host;
    tcp_addr.sin_port = htons(port);
    if (::bind(tcp_fd, reinterpret_cast<const sockaddr*>(&tcp_addr),
               sizeof(tcp_addr)) != 0 ||
        ::listen(tcp_fd, 128) != 0) {
      std::perror("confmaskd: tcp bind/listen");
      ::close(tcp_fd);
      ::close(unix_fd);
      ::unlink(options_.socket_path.c_str());
      return 1;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      tcp_port_.store(ntohs(bound.sin_port), std::memory_order_release);
    }
    listen_fds.push_back(tcp_fd);
    std::printf("confmaskd: listening on tcp %s (port %u)\n",
                options_.listen_address.c_str(),
                static_cast<unsigned>(tcp_port()));
  }

  std::printf("confmaskd: serving on %s\n", options_.socket_path.c_str());
  std::fflush(stdout);

  ArtifactCache cache(options_.cache_dir, options_.stamp,
                      options_.cache_max_bytes);
  std::unique_ptr<JobJournal> journal;
  if (!options_.journal_path.empty()) {
    try {
      journal = std::make_unique<JobJournal>(options_.journal_path);
    } catch (const std::exception& error) {
      // An unusable journal means the durability contract CANNOT be kept;
      // refusing to start beats silently accepting un-journaled jobs.
      std::fprintf(stderr, "confmaskd: %s\n", error.what());
      for (const int fd : listen_fds) ::close(fd);
      ::unlink(options_.socket_path.c_str());
      tcp_port_.store(0, std::memory_order_release);
      return 1;
    }
    const JournalRecovery& recovery = journal->recovery();
    if (!recovery.pending.empty() || recovery.truncated_bytes > 0) {
      std::printf(
          "confmaskd: journal recovery: %zu job(s) re-enqueued, %zu "
          "tombstone(s), %llu torn byte(s) truncated\n",
          recovery.pending.size(), recovery.terminal.size(),
          static_cast<unsigned long long>(recovery.truncated_bytes));
      std::fflush(stdout);
    }
  }

  // The quota table gates admissions from the first request on, so a
  // table the operator pointed at but we cannot honor refuses startup —
  // running unbounded when bounds were configured is the one wrong answer.
  TenantTable tenants;
  if (!options_.tenants_file.empty()) {
    std::string tenants_error;
    const auto loaded = load_tenant_table(options_.tenants_file, tenants_error);
    if (!loaded) {
      std::fprintf(stderr, "confmaskd: %s\n", tenants_error.c_str());
      for (const int fd : listen_fds) ::close(fd);
      ::unlink(options_.socket_path.c_str());
      tcp_port_.store(0, std::memory_order_release);
      return 1;
    }
    tenants = *loaded;
  }

  ConnectionServer::Options server_options;
  server_options.idle_timeout_ms = options_.idle_timeout_ms;
  server_options.max_line_bytes = options_.max_line_bytes;
  ConnectionServer server(std::move(listen_fds), server_options);

  // The operator's --trace stream, when configured: every job's lines,
  // whole, in the order their workers write them.
  std::unique_ptr<obs::NdjsonSink> trace_tee;
  if (options_.trace_stream != nullptr) {
    trace_tee = std::make_unique<obs::NdjsonSink>(*options_.trace_stream);
  }

  // Declared before the scheduler: Options::ring is a borrowed pointer.
  std::optional<RendezvousRing> ring;
  if (!options_.peers.empty()) {
    const std::string self = options_.self_endpoint.empty()
                                 ? options_.socket_path
                                 : options_.self_endpoint;
    ring.emplace(options_.peers, self);
    std::printf("confmaskd: shard ring of %zu member(s), self=%s\n",
                ring->size(), ring->self().c_str());
    std::fflush(stdout);
  }

  JobScheduler::Options scheduler_options;
  scheduler_options.max_concurrent_jobs = options_.max_concurrent_jobs;
  scheduler_options.max_pending = options_.max_pending;
  // Each job's trace lines go to the --trace tee and to that job's
  // subscribers.
  scheduler_options.trace_listener = [&server, tee = trace_tee.get()](
                                         std::uint64_t job,
                                         std::string_view line) {
    if (tee != nullptr) tee->write_line(line);
    server.publish(job, std::string(line), /*end_of_stream=*/false);
  };
  scheduler_options.journal = journal.get();
  scheduler_options.tenants = tenants;
  scheduler_options.state_listener = [&server](const JobStatus& status) {
    auto [line, terminal] = make_state_event(status);
    server.publish(status.id, std::move(line), terminal);
  };
  if (ring.has_value()) {
    scheduler_options.ring = &*ring;
    const std::uint32_t peer_timeout = options_.peer_timeout_ms;
    const std::string expect_stamp = cache.stamp();
    scheduler_options.peer_fetch =
        [peer_timeout, expect_stamp](
            const std::string& owner, const CacheKey& key,
            const std::string& tenant) -> std::optional<CacheArtifacts> {
      const std::string request = JsonWriter{}
                                      .string("op", "peer-fetch")
                                      .string("key", key.hex())
                                      .str();
      TransportError transport_error;
      const auto response =
          client_roundtrip(owner, request, &transport_error, peer_timeout);
      if (!response) return std::nullopt;
      const auto reply = parse_json_line(*response);
      if (!reply) return std::nullopt;
      if (get_bool(*reply, "ok") != std::optional<bool>(true)) {
        return std::nullopt;
      }
      if (get_bool(*reply, "found") != std::optional<bool>(true)) {
        return std::nullopt;
      }
      // Trust but verify: the peer must hold the EXACT entry — full key
      // (secondary included), same tenant, same build stamp. Anything
      // else is treated as a miss and computed locally; republishing a
      // mismatched artifact under this key would poison the local cache.
      if (get_string(*reply, "key").value_or("") != key.hex()) {
        return std::nullopt;
      }
      if (get_u64(*reply, "secondary").value_or(0) != key.secondary) {
        return std::nullopt;
      }
      if (get_string(*reply, "tenant").value_or("") != tenant) {
        return std::nullopt;
      }
      if (get_string(*reply, "stamp").value_or("") != expect_stamp) {
        return std::nullopt;
      }
      const auto configs = get_string(*reply, "configs");
      const auto original = get_string(*reply, "original");
      const auto diagnostics = get_string(*reply, "diagnostics");
      const auto metrics = get_string(*reply, "metrics");
      if (!configs || !original || !diagnostics || !metrics) {
        return std::nullopt;
      }
      CacheArtifacts artifacts;
      artifacts.anonymized_configs = *configs;
      artifacts.original_configs = *original;
      artifacts.diagnostics_json = *diagnostics;
      artifacts.metrics_json = *metrics;
      return artifacts;
    };
  }
  JobScheduler scheduler(&cache, scheduler_options);
  ProtocolHandler handler(&scheduler, &cache, journal.get());

  // Quota reload: SIGHUP (or request_reload()) is consumed on the poll
  // tick, outside signal context. A table that fails to parse is LOGGED
  // and ignored — a running fleet must not lose its bounds to a typo.
  std::uint64_t sighup_seen = g_sighup_count.load(std::memory_order_relaxed);
  server.set_tick_hook([&, sighup_seen]() mutable {
    const std::uint64_t now = g_sighup_count.load(std::memory_order_relaxed);
    const bool signaled = now != sighup_seen;
    sighup_seen = now;
    const bool requested = reload_.exchange(false, std::memory_order_acq_rel);
    if (!signaled && !requested) return;
    if (options_.tenants_file.empty()) return;
    std::string reload_error;
    const auto reloaded =
        load_tenant_table(options_.tenants_file, reload_error);
    if (!reloaded) {
      std::fprintf(stderr, "confmaskd: tenant reload failed (keeping old "
                           "table): %s\n",
                   reload_error.c_str());
      return;
    }
    scheduler.set_tenant_table(*reloaded);
    std::printf("confmaskd: tenant table reloaded (%zu named tenant(s))\n",
                reloaded->named().size());
    std::fflush(stdout);
  });

  JobScheduler::ShutdownMode shutdown_mode = JobScheduler::ShutdownMode::kDrain;
  bool shutdown_requested = false;
  server.set_line_handler([&](std::string_view line) {
    ShutdownCommand shutdown;
    SubscribeCommand subscribe;
    LineOutcome outcome;
    outcome.response = handler.handle(line, &shutdown, &subscribe);
    if (subscribe.requested) outcome.subscribe = subscribe.job;
    if (shutdown.requested) {
      shutdown_requested = true;
      shutdown_mode = shutdown.mode;
      outcome.shutdown = true;
    }
    return outcome;
  });
  // Close the subscribe-after-terminal race: the protocol ack reflected a
  // state that may since have advanced (or was terminal all along); the
  // probe runs on the loop thread AFTER registration, so a terminal job
  // always yields exactly one terminal event and the stream closes.
  server.set_subscribe_probe([&](std::uint64_t job) {
    const auto status = scheduler.status(job);
    if (!status) return;
    auto [line, terminal] = make_state_event(*status);
    if (terminal) server.publish(job, std::move(line), true);
  });

  server.run(stop_);

  ::unlink(options_.socket_path.c_str());
  tcp_port_.store(0, std::memory_order_release);
  // Graceful, fail-closed teardown: running jobs complete (and publish
  // whole entries or nothing); queued jobs drain or cancel per request.
  scheduler.shutdown(shutdown_requested ? shutdown_mode
                                        : JobScheduler::ShutdownMode::kDrain);
  return 0;
}

}  // namespace confmask
