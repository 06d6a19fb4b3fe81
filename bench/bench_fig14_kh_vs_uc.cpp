// Figure 14: impact of k_H on configuration utility U_C (k_R = 6). The
// paper: U_C drops moderately (0%-3%) as k_H grows from 2 to 6.
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header("Figure 14: k_H vs U_C (k_R=6)",
                "fake hosts cost fewer lines than fake links");
  const int khs[] = {2, 4, 6};
  std::printf("%-3s %-11s %10s %10s %10s\n", "ID", "Network", "k_H=2",
              "k_H=4", "k_H=6");
  for (const auto& network : bench::networks()) {
    double uc[3];
    for (int i = 0; i < 3; ++i) {
      auto options = bench::default_options();
      options.k_h = khs[i];
      const auto result = run_confmask(network.configs, options);
      const auto lines = bundle_line_stats(network.configs, result.anonymized);
      uc[i] = config_utility(lines.original, lines.anonymized);
    }
    std::printf("%-3s %-11s %9.1f%% %9.1f%% %9.1f%%\n", network.id.c_str(),
                network.name.c_str(), 100 * uc[0], 100 * uc[1], 100 * uc[2]);
    bench::csv("fig14," + network.id + "," + std::to_string(uc[0]) + "," +
               std::to_string(uc[1]) + "," + std::to_string(uc[2]));
  }
  return 0;
}
