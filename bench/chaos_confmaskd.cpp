// chaos_confmaskd — SIGKILL torture harness for the daemon's durability
// contract (DESIGN.md §12). Each iteration starts confmaskd with a journal
// and a persistent cache, submits jobs, kills the daemon with SIGKILL at a
// random instant, restarts it on the same state directories, and asserts:
//
//   1. every ACKNOWLEDGED job reaches a terminal state after restart
//      (the write-ahead journal replays interrupted jobs);
//   2. replayed results are byte-identical to a golden run that was never
//      interrupted (content-addressed determinism survives crashes);
//      half the job variants run under a named tenant, whose key and
//      recovery must hold as the default tenant's do;
//   3. resubmitting an acknowledged request converges to a cache hit with
//      identical bytes;
//   4. the on-disk cache never contains a partial entry — every directory
//      under entries/ has all five entry files (staging+rename publish).
//
// Submissions whose ack was lost to the kill are EXPECTED and ignored: the
// client contract for a lost ack is "resubmit and converge via the cache",
// which assertion 3 exercises every iteration.
//
//   usage: chaos_confmaskd --daemon PATH [--workdir DIR] [--iterations N]
//                          [--seed S]
//
// Exits 0 when every iteration held all four invariants, 1 on the first
// violation (with a diagnostic on stderr).
#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/service_load.hpp"
#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/client.hpp"
#include "src/service/json_line.hpp"

namespace {

using namespace confmask;
namespace fs = std::filesystem;

struct HarnessOptions {
  std::string daemon_binary;
  fs::path workdir;
  int iterations = 200;
  std::uint64_t seed = 1;
};

/// Deterministic rng for kill-delay and variant selection (splitmix64).
std::uint64_t next_random(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One job variant: a seed, under the default tenant (empty) or a named
/// one.
struct Variant {
  std::uint64_t seed;
  const char* tenant;
};

/// The job variants the harness cycles through. All share one topology so
/// parse cost stays negligible; distinct seeds give distinct cache keys,
/// and half of them run under a named tenant.
constexpr Variant kVariants[] = {
    {11, ""}, {22, "acme"}, {33, ""}, {44, "acme"}};
constexpr std::size_t kVariantCount = sizeof(kVariants) / sizeof(kVariants[0]);

std::string submit_variant(const std::string& configs, std::size_t variant) {
  return bench::submit_line(configs, kVariants[variant].seed,
                            kVariants[variant].tenant);
}

std::string variant_name(std::size_t variant) {
  const std::string tenant = kVariants[variant].tenant;
  return "seed " + std::to_string(kVariants[variant].seed) + " tenant " +
         (tenant.empty() ? "default" : tenant);
}

struct DaemonProcess {
  pid_t pid = -1;
  std::string socket_path;
};

/// fork/exec the daemon. The child's stdout is silenced so recovery
/// banners do not interleave with harness progress output.
DaemonProcess start_daemon(const HarnessOptions& options) {
  DaemonProcess daemon;
  daemon.socket_path = (options.workdir / "confmaskd.sock").string();
  const std::string cache_dir = (options.workdir / "cache").string();
  const std::string journal = (options.workdir / "jobs.wal").string();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("chaos_confmaskd: fork");
    std::exit(1);
  }
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    ::execl(options.daemon_binary.c_str(), options.daemon_binary.c_str(),
            "--socket", daemon.socket_path.c_str(), "--cache-dir",
            cache_dir.c_str(), "--journal", journal.c_str(), "--jobs", "2",
            static_cast<char*>(nullptr));
    std::perror("chaos_confmaskd: execl");
    std::_Exit(127);
  }
  daemon.pid = pid;
  return daemon;
}

/// Polls ping until the daemon answers (it unlinks stale sockets and
/// replays its journal before listening, so startup latency varies).
bool wait_ready(const DaemonProcess& daemon) {
  const std::string ping = JsonWriter{}.string("op", "ping").str();
  for (int i = 0; i < 1000; ++i) {
    if (client_roundtrip(daemon.socket_path, ping).has_value()) return true;
    // A child that died at startup will never answer — fail fast.
    if (::waitpid(daemon.pid, nullptr, WNOHANG) == daemon.pid) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

void kill_daemon(const DaemonProcess& daemon) {
  ::kill(daemon.pid, SIGKILL);
  ::waitpid(daemon.pid, nullptr, 0);
}

/// Drain-shutdown and reap; used for the golden run and iteration ends.
void stop_daemon(const DaemonProcess& daemon) {
  (void)client_roundtrip(daemon.socket_path, JsonWriter{}
                                                 .string("op", "shutdown")
                                                 .string("mode", "drain")
                                                 .str());
  ::waitpid(daemon.pid, nullptr, 0);
}

struct JobArtifacts {
  std::string configs;
  std::string metrics;
};

/// Polls status until terminal, then fetches result bytes. Returns false
/// (with a diagnostic) if the job fails or the daemon stops answering.
bool wait_and_fetch(const std::string& socket_path, std::uint64_t job,
                    JobArtifacts* out) {
  const std::string status_line =
      JsonWriter{}.string("op", "status").number_u64("job", job).str();
  for (int i = 0; i < 4000; ++i) {
    const auto response = client_roundtrip(socket_path, status_line);
    if (!response) {
      std::fprintf(stderr, "chaos: daemon unresponsive for job %llu\n",
                   static_cast<unsigned long long>(job));
      return false;
    }
    const auto parsed = parse_json_line(*response);
    if (!parsed || get_bool(*parsed, "ok") != true) {
      std::fprintf(stderr, "chaos: status for job %llu failed: %s\n",
                   static_cast<unsigned long long>(job), response->c_str());
      return false;
    }
    const auto state = get_string(*parsed, "state");
    if (state == "done") break;
    if (state == "failed" || state == "cancelled") {
      std::fprintf(stderr, "chaos: job %llu ended %s, expected done\n",
                   static_cast<unsigned long long>(job), state->c_str());
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto response = client_roundtrip(
      socket_path,
      JsonWriter{}.string("op", "result").number_u64("job", job).str());
  if (!response) return false;
  const auto parsed = parse_json_line(*response);
  if (!parsed || get_bool(*parsed, "ok") != true) return false;
  const auto configs = get_string(*parsed, "configs");
  const auto metrics = get_string(*parsed, "metrics");
  if (!configs || !metrics) return false;
  out->configs = *configs;
  out->metrics = *metrics;
  return true;
}

/// Invariant 4: no partial cache entries, ever. Publish is staging+rename,
/// so any directory under entries/ must already hold all five files.
bool cache_entries_complete(const fs::path& cache_dir) {
  const char* kFiles[] = {"meta.json", "anonymized.cfgset", "original.cfgset",
                          "diagnostics.json", "metrics.json"};
  std::error_code ec;
  for (fs::directory_iterator it(cache_dir / "entries", ec), end;
       !ec && it != end; ++it) {
    if (!it->is_directory()) continue;
    for (const char* file : kFiles) {
      if (!fs::exists(it->path() / file)) {
        std::fprintf(stderr, "chaos: PARTIAL cache entry %s missing %s\n",
                     it->path().filename().c_str(), file);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options;
  options.workdir = fs::temp_directory_path() / "chaos_confmaskd";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--daemon") == 0) {
      options.daemon_binary = argv[i + 1];
    } else if (std::strcmp(argv[i], "--workdir") == 0) {
      options.workdir = argv[i + 1];
    } else if (std::strcmp(argv[i], "--iterations") == 0) {
      options.iterations = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: chaos_confmaskd --daemon PATH [--workdir DIR] "
                   "[--iterations N] [--seed S]\n");
      return 2;
    }
  }
  if (options.daemon_binary.empty()) {
    std::fprintf(stderr, "chaos_confmaskd: --daemon is required\n");
    return 2;
  }

  fs::remove_all(options.workdir);
  fs::create_directories(options.workdir);
  const std::string configs_text =
      canonical_config_set_text(make_figure2());

  // Golden run: an uninterrupted daemon computes every variant once. All
  // later iterations must reproduce these bytes exactly.
  std::map<std::size_t, JobArtifacts> golden;
  {
    const DaemonProcess daemon = start_daemon(options);
    if (!wait_ready(daemon)) {
      std::fprintf(stderr, "chaos: golden daemon failed to start\n");
      return 1;
    }
    for (std::size_t variant = 0; variant < kVariantCount; ++variant) {
      const auto response = client_roundtrip(
          daemon.socket_path, submit_variant(configs_text, variant));
      const auto parsed =
          response ? parse_json_line(*response) : std::nullopt;
      const auto job = parsed ? get_u64(*parsed, "job") : std::nullopt;
      if (!job || !wait_and_fetch(daemon.socket_path, *job,
                                  &golden[variant])) {
        std::fprintf(stderr, "chaos: golden run failed for %s\n",
                     variant_name(variant).c_str());
        return 1;
      }
    }
    stop_daemon(daemon);
  }
  // Chaos iterations run on their own state dirs so every journal replay
  // and cache recovery below is the product of a SIGKILL, not the golden
  // shutdown.
  fs::remove_all(options.workdir / "cache");
  fs::remove_all(options.workdir / "jobs.wal");

  std::uint64_t rng = options.seed;
  int killed_mid_job = 0;
  for (int iteration = 0; iteration < options.iterations; ++iteration) {
    DaemonProcess daemon = start_daemon(options);
    if (!wait_ready(daemon)) {
      std::fprintf(stderr, "chaos: iteration %d: daemon failed to start "
                           "(journal/cache state from the last kill?)\n",
                   iteration);
      return 1;
    }

    // Submit two jobs; record only the ACKNOWLEDGED ones. A kill can land
    // between our write and the daemon's ack — those submissions carry no
    // durability promise and are dropped from the assertion set.
    std::vector<std::pair<std::uint64_t, std::size_t>> acked;  // job, variant
    for (int j = 0; j < 2; ++j) {
      const std::size_t variant = next_random(rng) % kVariantCount;
      const auto response = client_roundtrip(
          daemon.socket_path, submit_variant(configs_text, variant));
      const auto parsed =
          response ? parse_json_line(*response) : std::nullopt;
      const auto job = parsed ? get_u64(*parsed, "job") : std::nullopt;
      if (job) acked.emplace_back(*job, variant);
    }

    // The kill instant sweeps the whole job lifetime: 0–4ms spans ack'd
    // but unstarted, mid-pipeline, and already-published states.
    std::this_thread::sleep_for(
        std::chrono::microseconds(next_random(rng) % 4000));
    kill_daemon(daemon);

    if (!cache_entries_complete(options.workdir / "cache")) return 1;

    // Restart on the same journal + cache. Every acknowledged job must
    // reach done — replayed from the journal if the kill interrupted it —
    // with bytes identical to the golden run.
    daemon = start_daemon(options);
    if (!wait_ready(daemon)) {
      std::fprintf(stderr, "chaos: iteration %d: restart failed\n",
                   iteration);
      return 1;
    }
    bool any_replayed = false;
    for (const auto& [job, variant] : acked) {
      JobArtifacts artifacts;
      if (!wait_and_fetch(daemon.socket_path, job, &artifacts)) {
        std::fprintf(stderr,
                     "chaos: iteration %d: acked job %llu (%s) was LOST "
                     "across the kill\n",
                     iteration, static_cast<unsigned long long>(job),
                     variant_name(variant).c_str());
        return 1;
      }
      if (artifacts.configs != golden[variant].configs ||
          artifacts.metrics != golden[variant].metrics) {
        std::fprintf(stderr,
                     "chaos: iteration %d: job %llu bytes diverged from "
                     "golden\n",
                     iteration, static_cast<unsigned long long>(job));
        return 1;
      }
      any_replayed = true;
    }
    if (any_replayed) ++killed_mid_job;

    // Lost-ack convergence: resubmitting a variant must be served from the
    // cache, byte-identical. (This is the client's recovery path when a
    // kill ate the ack.)
    const std::size_t variant = acked.empty() ? 0 : acked.front().second;
    const auto response = client_roundtrip(
        daemon.socket_path, submit_variant(configs_text, variant));
    const auto parsed = response ? parse_json_line(*response) : std::nullopt;
    const auto job = parsed ? get_u64(*parsed, "job") : std::nullopt;
    JobArtifacts artifacts;
    if (!job || !wait_and_fetch(daemon.socket_path, *job, &artifacts) ||
        artifacts.configs != golden[variant].configs) {
      std::fprintf(stderr,
                   "chaos: iteration %d: resubmit did not converge\n",
                   iteration);
      return 1;
    }

    if (!cache_entries_complete(options.workdir / "cache")) return 1;
    stop_daemon(daemon);
    if ((iteration + 1) % 25 == 0) {
      std::printf("chaos: %d/%d iterations ok (%d exercised replay)\n",
                  iteration + 1, options.iterations, killed_mid_job);
      std::fflush(stdout);
    }
  }

  std::printf("chaos: PASS — %d iterations, %d exercised journal replay, "
              "no lost jobs, no partial cache entries, all bytes golden\n",
              options.iterations, killed_mid_job);
  return 0;
}
