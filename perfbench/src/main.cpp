// perfbench — the repository benchmark binary (see perfbench/README.md).
//
//   perfbench --workload cold-1k|serve-hits|serve-edits --seed N
//             --seconds S --trace 0|1 --daemon PATH --work-dir DIR
//             [--spans FILE]
//   perfbench --self-test
//
// Prints a readable report and, as its last stdout line, one JSON object
// with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1). Exits
// nonzero without that line when the run could not be carried out.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/checks.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-1k|serve-hits|serve-edits "
               "--seed N --seconds S --trace 0|1 --daemon PATH --work-dir "
               "DIR [--spans FILE]\n       perfbench --self-test\n");
  return 2;
}

/// Untimed warm-up: at least 2 s of CPU work on every core. After idle,
/// this machine class runs the first ~1.5 s of CPU work 2-3x slower.
void warm_up() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const auto until = Clock::now() + std::chrono::milliseconds(2200);
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < cores; ++i) {
    threads.emplace_back([&, i] {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + i;
      while (Clock::now() < until) {
        for (int k = 0; k < 100'000; ++k) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
      }
      sink += x;
    });
  }
  for (auto& thread : threads) thread.join();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool self_test_only = false;
  bool trace_given = false;
  fs::path spans;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
      trace_given = value == "0" || value == "1";
    } else if (arg == "--daemon") {
      config.daemon = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--spans") {
      spans = value;
    } else {
      return usage();
    }
  }

  std::string detail;
  if (self_test_only) {
    const bool ok = checks_self_test(&detail);
    std::printf("checks self-test: %s: %s\n", ok ? "ok" : "FAILED",
                detail.c_str());
    return ok ? 0 : 1;
  }
  if (!trace_given || config.seconds <= 0 || config.work_dir.empty() ||
      (config.workload != "cold-1k" && config.workload != "serve-hits" &&
       config.workload != "serve-edits")) {
    return usage();
  }
  if (config.workload != "cold-1k" && !fs::exists(config.daemon)) {
    std::fprintf(stderr, "perfbench: daemon binary %s not found\n",
                 config.daemon.c_str());
    return 2;
  }

  try {
    fs::create_directories(config.work_dir);
    warm_up();
    WorkloadResult result;
    if (config.workload == "cold-1k") {
      result = run_cold(config);
    } else if (config.workload == "serve-hits") {
      result = run_serve_hits(config);
    } else {
      result = run_serve_edits(config);
    }
    result.checks_self_test_ok = checks_self_test(&detail);
    std::printf("checks self-test detail: %s\n", detail.c_str());
    if (result.tracer) {
      if (spans.empty()) spans = config.work_dir / "spans.ndjson";
      result.tracer->write_ndjson(spans);
      std::printf("spans: %s\n", spans.c_str());
    }
    return report(config, result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", error.what());
    return 1;
  }
}
