// Watch-mode fuzz driver: patched re-anonymization checked byte-for-byte
// against from-scratch runs over random edit sequences (see
// src/testing/watch_fuzz.hpp for the per-case check ladder).
//
//   fuzz_watch [--cases N] [--start-seed S] [--budget-seconds B]
//              [--repros DIR] [--jobs N] [--min-routers N]
//              [--max-routers N] [--max-edits N] [--require-replay]
//
// Seeds are sequential from --start-seed, so a budgeted CI run still
// covers a deterministic prefix of the corpus and every failure replays
// by seed. Exit status: 0 when every case agreed, 1 on any divergence
// (repros land under --repros) or, with --require-replay, when no case's
// patched run replayed Algorithm 2 or none replayed Algorithm 1; 2 on
// usage errors.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/testing/watch_fuzz.hpp"
#include "src/util/thread_pool.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cases N] [--start-seed S] [--budget-seconds B]"
               " [--repros DIR] [--jobs N] [--min-routers N]"
               " [--max-routers N] [--max-edits N] [--require-replay]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  int cases = 200;
  std::uint64_t start_seed = 1;
  double budget_seconds = 0.0;
  unsigned jobs = 0;
  bool require_replay = false;
  confmask::WatchFuzzOptions options;
  options.repro_dir = "repros";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--cases") {
      cases = std::atoi(value());
    } else if (arg == "--start-seed") {
      start_seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--budget-seconds") {
      budget_seconds = std::atof(value());
    } else if (arg == "--repros") {
      options.repro_dir = value();
    } else if (arg == "--jobs") {
      jobs = static_cast<unsigned>(std::atoi(value()));
    } else if (arg == "--min-routers") {
      options.min_routers = std::atoi(value());
    } else if (arg == "--max-routers") {
      options.max_routers = std::atoi(value());
    } else if (arg == "--max-edits") {
      options.max_edits = std::atoi(value());
    } else if (arg == "--require-replay") {
      require_replay = true;
    } else {
      usage(argv[0]);
    }
  }
  if (cases <= 0 || options.min_routers < 2 ||
      options.max_routers < options.min_routers || options.max_edits < 1) {
    usage(argv[0]);
  }
  if (jobs > 0) confmask::ThreadPool::configure(jobs);

  const auto stats =
      confmask::run_watch_fuzz_corpus(start_seed, cases, options,
                                      budget_seconds);

  std::printf(
      "fuzz_watch: %d case(s) from seed %llu — %d divergence(s), "
      "%d base skip(s), %d patched case(s), %d replayed case(s), "
      "%d Algorithm 1 replay(s)\n",
      stats.cases, static_cast<unsigned long long>(start_seed),
      stats.failures, stats.base_skips, stats.patched_cases,
      stats.replayed_cases, stats.equivalence_replayed_cases);
  for (const auto& finding : stats.findings) {
    std::printf("  seed %llu: check '%s' failed: %s\n",
                static_cast<unsigned long long>(finding.seed),
                finding.check.c_str(), finding.detail.c_str());
    if (!finding.repro_path.empty()) {
      std::printf("    repro: %s\n", finding.repro_path.c_str());
    }
  }
  if (stats.cases > 0 && stats.patched_cases == 0) {
    // Diagnostic, not a failure: an all-fallback corpus would silently
    // stop testing the patch path (e.g. a capture regression).
    std::printf("warning: no case reused any stage — patch path untested\n");
  }
  if (require_replay && stats.replayed_cases == 0) {
    std::printf("no case replayed Algorithm 2 — replay path untested\n");
    return 1;
  }
  if (require_replay && stats.equivalence_replayed_cases == 0) {
    std::printf("no case replayed Algorithm 1 — its replay path untested\n");
    return 1;
  }
  return stats.failures == 0 ? 0 : 1;
}
