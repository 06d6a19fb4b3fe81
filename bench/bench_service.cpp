// bench_service — concurrent-client load harness for confmaskd.
//
//   usage: bench_service [--clients N] [--ops N] [--seeds N] [--out FILE]
//
// Spins up an in-process daemon, opens one raw connection that stays IDLE
// for the whole run (the `nc -U` stand-in that used to wedge the serial
// accept loop), then drives N concurrent clients through --ops
// submit -> poll-to-terminal -> result cycles each. Submit seeds rotate
// through --seeds distinct values, so most pipeline runs are served from
// the artifact cache and the measurement stresses connection handling, not
// anonymization throughput.
//
// Reports p50/p99/max submit-to-result latency and the cache hit rate, and
// runs the pinned head-of-line regression check: with the idle connection
// still open, a final submit+result roundtrip bounded by a 10s receive
// timeout must succeed. Writes BENCH_service.json
// (schema confmask.bench-service/1); exits 1 if any client op failed or the
// idle-client check regressed.
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
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/service_load.hpp"
#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/daemon.hpp"

namespace {

using namespace confmask;
using namespace confmask::bench;
namespace fs = std::filesystem;

int usage() {
  std::fprintf(stderr,
               "usage: bench_service [--clients N] [--ops N] [--seeds N] "
               "[--out FILE]\n");
  return 2;
}

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

}  // namespace

int main(int argc, char** argv) {
  int clients = 256;
  int ops_per_client = 4;
  int distinct_seeds = 4;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string arg = argv[i];
    if (arg == "--clients") {
      clients = std::atoi(argv[i + 1]);
    } else if (arg == "--ops") {
      ops_per_client = std::atoi(argv[i + 1]);
    } else if (arg == "--seeds") {
      distinct_seeds = std::atoi(argv[i + 1]);
    } else if (arg == "--out") {
      out_path = argv[i + 1];
    } else {
      return usage();
    }
  }
  if (clients < 1 || ops_per_client < 1 || distinct_seeds < 1) return usage();

  const std::string socket_path =
      "/tmp/bench_service_" + std::to_string(::getpid()) + ".sock";
  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("bench_service_cache_" + std::to_string(::getpid()));
  fs::remove_all(cache_dir);

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  Daemon daemon(options);
  std::thread server([&daemon] { (void)daemon.run(); });

  const std::string stats_line = JsonWriter{}.string("op", "stats").str();
  bool up = false;
  for (int i = 0; i < 250 && !up; ++i) {
    up = client_roundtrip(socket_path, stats_line).has_value();
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!up) {
    std::fprintf(stderr, "bench_service: daemon never came up\n");
    return 1;
  }

  // The idle connection opens BEFORE the load and stays silent throughout;
  // under the old serial accept loop nothing below would complete.
  const int idle_fd = raw_connect(socket_path);
  if (idle_fd < 0) {
    std::fprintf(stderr, "bench_service: idle connect failed\n");
    return 1;
  }

  const std::string configs = canonical_config_set_text(make_figure2());
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(clients));
  std::atomic<int> failures{0};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (int op = 0; op < ops_per_client; ++op) {
        const std::uint64_t seed = static_cast<std::uint64_t>(
            1 + (c * ops_per_client + op) % distinct_seeds);
        const auto latency_ms = run_op(socket_path, configs, seed);
        if (!latency_ms) {
          failures.fetch_add(1);
          continue;
        }
        per_client[static_cast<std::size_t>(c)].push_back(*latency_ms);
      }
    });
  }
  for (auto& t : workers) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  // Pinned head-of-line regression check: the idle connection is STILL
  // open; a bounded submit+result cycle must go through regardless.
  bool idle_check_ok = false;
  {
    const auto latency_ms = run_op(socket_path, configs, 1);
    idle_check_ok = latency_ms.has_value();
  }
  ::close(idle_fd);

  // Cache hit rate comes from the daemon's own counters.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  if (const auto response = client_roundtrip(socket_path, stats_line)) {
    if (const auto stats = parse_json_line(*response)) {
      cache_hits = get_u64(*stats, "cache_hits").value_or(0);
      cache_misses = get_u64(*stats, "cache_misses").value_or(0);
    }
  }
  (void)client_roundtrip(socket_path, JsonWriter{}
                                          .string("op", "shutdown")
                                          .string("mode", "cancel")
                                          .str());
  server.join();
  fs::remove_all(cache_dir);

  std::vector<double> latencies;
  for (const auto& samples : per_client) {
    latencies.insert(latencies.end(), samples.begin(), samples.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double max_ms = latencies.empty() ? 0.0 : latencies.back();
  const std::uint64_t lookups = cache_hits + cache_misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache_hits) /
                         static_cast<double>(lookups);

  const int total_ops = clients * ops_per_client;
  std::printf("bench_service: %d clients x %d ops (%d distinct seeds)\n",
              clients, ops_per_client, distinct_seeds);
  std::printf("  completed %zu/%d ops in %.2fs, %d failures\n",
              latencies.size(), total_ops, wall_s, failures.load());
  std::printf("  submit-to-result latency ms: p50=%.2f p99=%.2f max=%.2f\n",
              p50, p99, max_ms);
  std::printf("  cache: %llu hits / %llu misses (hit rate %.3f)\n",
              static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(cache_misses), hit_rate);
  std::printf("  idle-client head-of-line check: %s\n",
              idle_check_ok ? "ok" : "FAILED");

  JsonWriter json(JsonWriter::Layout::kLines);
  json.string("schema", "confmask.bench-service/1")
      .number("clients", clients)
      .number("ops_per_client", ops_per_client)
      .number("distinct_seeds", distinct_seeds)
      .number("total_ops", total_ops)
      .number_u64("completed_ops", latencies.size())
      .number("failures", failures.load())
      .fixed("wall_s", wall_s);
  write_latency_ms(json, latencies);
  json.object("cache")
      .number_u64("hits", cache_hits)
      .number_u64("misses", cache_misses)
      .fixed("hit_rate", hit_rate)
      .end()
      .string("idle_client_check", idle_check_ok ? "ok" : "failed");
  if (!(std::ofstream(out_path) << std::move(json).str())) {
    std::fprintf(stderr, "bench_service: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", out_path.c_str());

  if (!idle_check_ok) {
    std::fprintf(stderr,
                 "bench_service: REGRESSION — an idle connection delayed or "
                 "blocked a concurrent submit\n");
    return 1;
  }
  return failures.load() == 0 ? 0 : 1;
}
