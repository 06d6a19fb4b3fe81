// bench_fleet — multi-tenant load harness for a confmaskd fleet.
//
//   usage: bench_fleet [--daemons N] [--clients N] [--ops N] [--seeds N]
//                      [--out FILE]
//
// Spins up --daemons in-process daemons joined into one rendezvous shard
// ring (every daemon lists every socket in --peers), warms daemon 1's
// cache with each distinct seed, then drives two tenants against the
// whole fleet at once:
//
//   * "noisy"  — --clients concurrent clients, --ops submit->result
//                cycles each, round-robin across all daemons, seeds
//                rotating through --seeds values. Most ops are local or
//                peer cache hits; keys owned by another member exercise
//                peer-fetch under contention.
//   * "quiet"  — ONE client running a handful of ops of its own seeds
//                (cold keys, its own namespace) while the noisy tenant
//                saturates the fleet. Fair-share admission must keep this
//                tenant responsive; its ops failing or timing out is the
//                starvation regression this harness pins.
//
// Reports per-tenant p50/p99/max submit-to-result latency, the fleet-wide
// peer-fetch hit rate (summed over every daemon's counters), and the
// starvation check. Writes BENCH_fleet.json (confmask.bench-fleet/1);
// exits 1 on any failed op or a failed starvation check.
//
// The fleet's sockets and caches live in one private run directory, which
// the process works from. The shard ring hashes each member's endpoint
// string, so the sockets go by fixed relative names there: which daemon
// owns which key does not change from run to run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
               "usage: bench_fleet [--daemons N] [--clients N] [--ops N] "
               "[--seeds N] [--out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int daemons = 3;
  int clients = 24;
  int ops_per_client = 4;
  int distinct_seeds = 6;
  std::string out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string arg = argv[i];
    if (arg == "--daemons") {
      daemons = std::atoi(argv[i + 1]);
    } else if (arg == "--clients") {
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
  if (daemons < 2 || clients < 1 || ops_per_client < 1 || distinct_seeds < 1) {
    return usage();
  }

  std::string run_template =
      (fs::temp_directory_path() / "bench_fleet_XXXXXX").string();
  if (::mkdtemp(run_template.data()) == nullptr) {
    std::perror("bench_fleet: mkdtemp");
    return 1;
  }
  const fs::path run_dir = run_template;
  const fs::path start_dir = fs::current_path();
  out_path = fs::absolute(out_path).string();
  fs::current_path(run_dir);

  // One ring, every member lists every socket.
  std::vector<std::string> sockets;
  std::vector<fs::path> cache_dirs;
  for (int d = 0; d < daemons; ++d) {
    sockets.push_back("daemon-" + std::to_string(d) + ".sock");
    cache_dirs.push_back(run_dir / ("cache-" + std::to_string(d)));
  }

  std::vector<std::unique_ptr<Daemon>> fleet;
  for (int d = 0; d < daemons; ++d) {
    Daemon::Options options;
    options.socket_path = sockets[static_cast<std::size_t>(d)];
    options.cache_dir = cache_dirs[static_cast<std::size_t>(d)];
    options.peers = sockets;
    fleet.push_back(std::make_unique<Daemon>(options));
  }
  std::vector<std::thread> servers;
  servers.reserve(fleet.size());
  for (const auto& daemon : fleet) {
    servers.emplace_back([d = daemon.get()] { (void)d->run(); });
  }

  const std::string stats_line = JsonWriter{}.string("op", "stats").str();
  for (const std::string& socket : sockets) {
    bool up = false;
    for (int i = 0; i < 250 && !up; ++i) {
      up = client_roundtrip(socket, stats_line).has_value();
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!up) {
      std::fprintf(stderr, "bench_fleet: daemon %s never came up\n",
                   socket.c_str());
      return 1;
    }
  }

  const std::string configs = canonical_config_set_text(make_figure2());

  // Warm phase: every noisy seed computed once on daemon 1, so the load
  // phase measures cache/peer serving rather than pipeline throughput.
  for (int s = 0; s < distinct_seeds; ++s) {
    if (!run_op(sockets.front(), configs,
                static_cast<std::uint64_t>(1 + s), "noisy")) {
      std::fprintf(stderr, "bench_fleet: warm-up op failed (seed %d)\n",
                   1 + s);
      return 1;
    }
  }

  std::vector<std::vector<double>> noisy_samples(
      static_cast<std::size_t>(clients));
  std::vector<double> quiet_samples;
  std::atomic<int> noisy_failures{0};
  std::atomic<int> quiet_failures{0};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> load;
  load.reserve(static_cast<std::size_t>(clients) + 1);
  for (int c = 0; c < clients; ++c) {
    load.emplace_back([&, c] {
      for (int op = 0; op < ops_per_client; ++op) {
        const int index = c * ops_per_client + op;
        const std::uint64_t seed =
            static_cast<std::uint64_t>(1 + index % distinct_seeds);
        const std::string& socket =
            sockets[static_cast<std::size_t>(index % daemons)];
        const auto latency_ms = run_op(socket, configs, seed, "noisy");
        if (!latency_ms) {
          noisy_failures.fetch_add(1);
          continue;
        }
        noisy_samples[static_cast<std::size_t>(c)].push_back(*latency_ms);
      }
    });
  }
  // The quiet tenant: cold keys in its own namespace, one op per daemon,
  // submitted while the noisy tenant saturates the fleet.
  load.emplace_back([&] {
    for (int op = 0; op < daemons; ++op) {
      const std::uint64_t seed = static_cast<std::uint64_t>(1'000 + op);
      const std::string& socket = sockets[static_cast<std::size_t>(op)];
      const auto latency_ms = run_op(socket, configs, seed, "quiet");
      if (!latency_ms) {
        quiet_failures.fetch_add(1);
        continue;
      }
      quiet_samples.push_back(*latency_ms);
    }
  });
  for (auto& t : load) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  // Fleet-wide peer counters, per-daemon tenant attribution as a sanity
  // check that namespaces stayed separate.
  std::uint64_t peer_hits = 0;
  std::uint64_t peer_misses = 0;
  std::uint64_t noisy_completed = 0;
  std::uint64_t quiet_completed = 0;
  for (const std::string& socket : sockets) {
    if (const auto response = client_roundtrip(socket, stats_line)) {
      if (const auto stats = parse_json_line(*response)) {
        peer_hits += get_u64(*stats, "peer_hits").value_or(0);
        peer_misses += get_u64(*stats, "peer_misses").value_or(0);
        noisy_completed +=
            get_u64(*stats, "tenant:noisy:completed").value_or(0);
        quiet_completed +=
            get_u64(*stats, "tenant:quiet:completed").value_or(0);
      }
    }
    (void)client_roundtrip(socket, JsonWriter{}
                                       .string("op", "shutdown")
                                       .string("mode", "cancel")
                                       .str());
  }
  for (auto& t : servers) t.join();
  fs::current_path(start_dir);
  fs::remove_all(run_dir);

  std::vector<double> noisy;
  for (const auto& samples : noisy_samples) {
    noisy.insert(noisy.end(), samples.begin(), samples.end());
  }
  std::sort(noisy.begin(), noisy.end());
  std::sort(quiet_samples.begin(), quiet_samples.end());
  const std::uint64_t probes = peer_hits + peer_misses;
  const double peer_hit_rate =
      probes == 0 ? 0.0
                  : static_cast<double>(peer_hits) /
                        static_cast<double>(probes);
  // Starvation check: every quiet op completed despite the noisy flood.
  const bool starvation_ok =
      quiet_failures.load() == 0 &&
      quiet_samples.size() == static_cast<std::size_t>(daemons);

  const int noisy_total = clients * ops_per_client;
  std::printf("bench_fleet: %d daemons, %d noisy clients x %d ops "
              "(%d seeds), quiet tenant %d ops\n",
              daemons, clients, ops_per_client, distinct_seeds, daemons);
  std::printf("  wall %.2fs; noisy %zu/%d ops (%d failures), "
              "quiet %zu/%d ops (%d failures)\n",
              wall_s, noisy.size(), noisy_total, noisy_failures.load(),
              quiet_samples.size(), daemons, quiet_failures.load());
  std::printf("  noisy latency ms: p50=%.2f p99=%.2f max=%.2f\n",
              percentile(noisy, 0.50), percentile(noisy, 0.99),
              noisy.empty() ? 0.0 : noisy.back());
  std::printf("  quiet latency ms: p50=%.2f p99=%.2f max=%.2f\n",
              percentile(quiet_samples, 0.50),
              percentile(quiet_samples, 0.99),
              quiet_samples.empty() ? 0.0 : quiet_samples.back());
  std::printf("  peer-fetch: %llu hits / %llu misses (hit rate %.3f)\n",
              static_cast<unsigned long long>(peer_hits),
              static_cast<unsigned long long>(peer_misses), peer_hit_rate);
  std::printf("  tenant completions: noisy=%llu quiet=%llu\n",
              static_cast<unsigned long long>(noisy_completed),
              static_cast<unsigned long long>(quiet_completed));
  std::printf("  starvation check: %s\n", starvation_ok ? "ok" : "FAILED");

  JsonWriter json(JsonWriter::Layout::kLines);
  json.string("schema", "confmask.bench-fleet/1")
      .number("daemons", daemons)
      .number("clients", clients)
      .number("ops_per_client", ops_per_client)
      .number("distinct_seeds", distinct_seeds)
      .fixed("wall_s", wall_s)
      .object("tenants", JsonWriter::Layout::kLines);
  json.object("noisy")
      .number("ops", noisy_total)
      .number_u64("completed", noisy.size())
      .number("failures", noisy_failures.load());
  write_latency_ms(json, noisy);
  json.end()
      .object("quiet")
      .number("ops", daemons)
      .number_u64("completed", quiet_samples.size())
      .number("failures", quiet_failures.load());
  write_latency_ms(json, quiet_samples);
  json.end()
      .end()
      .object("peer_fetch")
      .number_u64("hits", peer_hits)
      .number_u64("misses", peer_misses)
      .fixed("hit_rate", peer_hit_rate)
      .end()
      .string("starvation_check", starvation_ok ? "ok" : "failed");
  if (!(std::ofstream(out_path) << std::move(json).str())) {
    std::fprintf(stderr, "bench_fleet: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", out_path.c_str());

  if (!starvation_ok) {
    std::fprintf(stderr,
                 "bench_fleet: STARVATION — the quiet tenant's ops did not "
                 "all complete under noisy-tenant load\n");
    return 1;
  }
  return noisy_failures.load() == 0 ? 0 : 1;
}
