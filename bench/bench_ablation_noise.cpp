// Ablation: Algorithm 2's noise coefficient p (paper fixes p = 0.1).
//
// Sweeping p shows the knob's whole trade-off: p = 0 adds no route
// anonymity beyond the fake-host companions; larger p diverts more fake
// flows (higher N_r) at the cost of more filter lines (lower U_C) and
// more rollback work.
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header("Ablation: Algorithm 2 noise coefficient p (k_R=6, k_H=2)",
                "paper picks p=0.1; larger p trades lines for anonymity");
  const double ps[] = {0.0, 0.05, 0.1, 0.3, 0.5};
  std::printf("%-3s %-11s %6s %8s %8s %10s %8s %6s\n", "ID", "Network", "p",
              "N_r", "filters", "rollbacks", "U_C", "FE");
  for (const auto& network : bench::networks()) {
    if (network.id != "C" && network.id != "D" && network.id != "G") {
      continue;  // representative subset: BGP, ISP, fat tree
    }
    for (const double p : ps) {
      auto options = bench::default_options();
      options.noise_p = p;
      const auto result = run_confmask(network.configs, options);
      const auto lines = bundle_line_stats(network.configs, result.anonymized);
      const auto nr =
          route_anonymity_nr(simulated_data_plane(result.anonymized));
      const double uc = config_utility(lines.original, lines.anonymized);
      std::printf("%-3s %-11s %6.2f %8.2f %8d %10d %7.1f%% %6s\n",
                  network.id.c_str(), network.name.c_str(), p, nr.average,
                  result.stats.anonymity_filters,
                  result.stats.anonymity_rollbacks, 100.0 * uc,
                  result.functionally_equivalent ? "yes" : "NO");
      bench::csv("ablation_noise," + network.id + "," + std::to_string(p) +
                 "," + std::to_string(nr.average) + "," +
                 std::to_string(result.stats.anonymity_filters) + "," +
                 std::to_string(result.stats.anonymity_rollbacks) + "," +
                 std::to_string(uc));
    }
  }
  return 0;
}
