// Figure 13: impact of k_R on configuration utility U_C (k_H = 2). The
// paper: U_C drops by 1%-20% as k_R grows from 2 to 10.
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header("Figure 13: k_R vs U_C (k_H=2)",
                "more fake links cost more configuration lines");
  const int krs[] = {2, 6, 10};
  std::printf("%-3s %-11s %10s %10s %10s\n", "ID", "Network", "k_R=2",
              "k_R=6", "k_R=10");
  for (const auto& network : bench::networks()) {
    double uc[3];
    for (int i = 0; i < 3; ++i) {
      auto options = bench::default_options();
      options.k_r = krs[i];
      const auto result = run_confmask(network.configs, options);
      const auto lines = bundle_line_stats(network.configs, result.anonymized);
      uc[i] = config_utility(lines.original, lines.anonymized);
    }
    std::printf("%-3s %-11s %9.1f%% %9.1f%% %9.1f%%\n", network.id.c_str(),
                network.name.c_str(), 100 * uc[0], 100 * uc[1], 100 * uc[2]);
    bench::csv("fig13," + network.id + "," + std::to_string(uc[0]) + "," +
               std::to_string(uc[1]) + "," + std::to_string(uc[2]));
  }
  return 0;
}
