// Differential fuzz driver: cross-checks the fast simulation engine
// against the independent reference oracle on seeded random networks.
//
//   fuzz_differential [--cases N] [--start-seed S] [--budget-seconds B]
//                     [--repros DIR] [--jobs N] [--no-incremental]
//                     [--no-jobs-check] [--max-routers N] [--max-hosts N]
//                     [--scale] [--scale-routers N]
//
// Seeds are sequential from --start-seed, so a CI run with a wall-clock
// budget still covers a deterministic prefix of the corpus and any failure
// is replayable by seed. --scale switches the corpus from tiny random
// networks to the netgen scale families (Waxman OSPF / Waxman RIP /
// multi-AS / preferential attachment, round-robin by seed) at
// --scale-routers routers each, running the same check ladder. Exit status: 0 when every case agreed, 1 on any
// divergence (repros land under --repros), 2 on usage errors.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/netgen/scale_families.hpp"
#include "src/testing/differential.hpp"
#include "src/util/thread_pool.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cases N] [--start-seed S] [--budget-seconds B]"
               " [--repros DIR] [--jobs N] [--no-incremental]"
               " [--no-jobs-check] [--max-routers N] [--max-hosts N]"
               " [--scale] [--scale-routers N]\n",
               argv0);
  std::exit(2);
}

/// The scale corpus: seed i picks family i%4 (Waxman OSPF, Waxman RIP,
/// multi-AS, preferential attachment), generates + decorates at the
/// requested size, and runs the standard check ladder. Reference-oracle
/// work grows steeply with size, so the default stays at 500 routers.
confmask::DifferentialCorpusStats run_scale_corpus(
    std::uint64_t start_seed, int cases, int scale_routers,
    const confmask::DifferentialOptions& options, double budget_seconds) {
  using namespace confmask;
  constexpr ScaleFamily kFamilies[] = {
      ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
      ScaleFamily::kPreferentialAttachment};
  DifferentialCorpusStats stats;
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < cases; ++i) {
    if (budget_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - started;
      if (elapsed.count() > budget_seconds) break;
    }
    const std::uint64_t seed = start_seed + static_cast<std::uint64_t>(i);
    ConfigSet configs = make_scale_network(
        kFamilies[seed % 4], scale_routers, seed);
    decorate_scale_network(configs, seed);
    const DifferentialResult result =
        run_differential_checks(configs, seed, options);
    ++stats.cases;
    if (result.truncated_skip) ++stats.truncated_skips;
    if (!result.ok && result.finding) {
      ++stats.failures;
      stats.findings.push_back(*result.finding);
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  int cases = 200;
  std::uint64_t start_seed = 1;
  double budget_seconds = 0.0;
  unsigned jobs = 0;
  bool scale = false;
  int scale_routers = 500;
  confmask::DifferentialOptions options;
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
    } else if (arg == "--no-incremental") {
      options.check_incremental = false;
    } else if (arg == "--no-jobs-check") {
      options.check_jobs = false;
    } else if (arg == "--max-routers") {
      options.network.max_routers = std::atoi(value());
    } else if (arg == "--max-hosts") {
      options.network.max_hosts = std::atoi(value());
    } else if (arg == "--scale") {
      scale = true;
    } else if (arg == "--scale-routers") {
      scale_routers = std::atoi(value());
    } else {
      usage(argv[0]);
    }
  }
  if (cases <= 0 || scale_routers < 2) usage(argv[0]);
  if (jobs > 0) confmask::ThreadPool::configure(jobs);

  const auto stats =
      scale ? run_scale_corpus(start_seed, cases, scale_routers, options,
                               budget_seconds)
            : confmask::run_differential_corpus(start_seed, cases, options,
                                                budget_seconds);

  std::printf(
      "fuzz_differential%s: %d case(s) from seed %llu — %d divergence(s), "
      "%d truncated skip(s)\n",
      scale ? " [scale]" : "", stats.cases,
      static_cast<unsigned long long>(start_seed), stats.failures,
      stats.truncated_skips);
  for (const auto& finding : stats.findings) {
    std::printf("  seed %llu: check '%s' failed: %s\n",
                static_cast<unsigned long long>(finding.seed),
                finding.check.c_str(), finding.detail.c_str());
    if (!finding.repro_path.empty()) {
      std::printf("    repro: %s\n", finding.repro_path.c_str());
    }
  }
  return stats.failures == 0 ? 0 : 1;
}
