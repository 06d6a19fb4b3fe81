// Figure 16: end-to-end running time of ConfMask vs strawman 1/2, plus the
// simulation-job counts that dominate the cost (§5.4). The paper: strawman
// 1 is fastest (sacrificing privacy), strawman 2 takes 8-100x ConfMask's
// time, ConfMask handles the largest network in ~6 minutes on the authors'
// Batfish-based stack (our simulator is far faster in absolute terms; the
// ordering and ratios are the reproducible shape). A timing of a run that
// did not verify means nothing, so any such run makes the bench exit 1.
#include "bench/bench_common.hpp"
#include "src/routing/simulation.hpp"

int main() {
  using namespace confmask;
  bench::header("Figure 16: running time, ConfMask vs strawman 1/2",
                "S1 fastest < ConfMask << S2 (8-100x)");
  std::printf("%-3s %-11s | %9s %9s %9s | %6s %6s %6s\n", "ID", "Network",
              "CM (s)", "S1 (s)", "S2 (s)", "simCM", "simS1", "simS2");
  bool all_verified = true;
  for (const auto& network : bench::networks()) {
    const auto options = bench::default_options();
    const auto cm =
        run_pipeline(network.configs, options, EquivalenceStrategy::kConfMask);
    const auto s1 = run_pipeline(network.configs, options,
                                 EquivalenceStrategy::kStrawman1);
    const auto s2 = run_pipeline(network.configs, options,
                                 EquivalenceStrategy::kStrawman2);
    const bool verified = cm.functionally_equivalent &&
                          s1.functionally_equivalent &&
                          s2.functionally_equivalent;
    all_verified = all_verified && verified;
    std::printf(
        "%-3s %-11s | %9.3f %9.3f %9.3f | %6llu %6llu %6llu%s\n",
        network.id.c_str(), network.name.c_str(), cm.stats.seconds,
        s1.stats.seconds, s2.stats.seconds,
        static_cast<unsigned long long>(cm.stats.simulations),
        static_cast<unsigned long long>(s1.stats.simulations),
        static_cast<unsigned long long>(s2.stats.simulations),
        verified ? "" : "  [FE FAILED]");
    bench::csv("fig16," + network.id + "," + std::to_string(cm.stats.seconds) +
               "," + std::to_string(s1.stats.seconds) + "," +
               std::to_string(s2.stats.seconds) + "," +
               std::to_string(cm.stats.simulations) + "," +
               std::to_string(s1.stats.simulations) + "," +
               std::to_string(s2.stats.simulations));
  }
  if (!all_verified) {
    std::fprintf(stderr, "bench_fig16_runtime: a timed run did not verify\n");
    return 1;
  }
  return 0;
}
