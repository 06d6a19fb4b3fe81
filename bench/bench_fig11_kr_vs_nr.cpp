// Figure 11: impact of k_R on route anonymity N_r (k_H = 2). The paper
// finds no strong correlation (averages 2.00 / 1.97 / 2.04 at k_R = 2, 6,
// 10).
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header("Figure 11: k_R vs N_r (k_H=2)",
                "k_R does not strongly affect route anonymity");
  const int krs[] = {2, 6, 10};
  std::printf("%-3s %-11s %10s %10s %10s\n", "ID", "Network", "k_R=2",
              "k_R=6", "k_R=10");
  double totals[3] = {0, 0, 0};
  int count = 0;
  for (const auto& network : bench::networks()) {
    double nr[3];
    for (int i = 0; i < 3; ++i) {
      auto options = bench::default_options();
      options.k_r = krs[i];
      const auto result = run_confmask(network.configs, options);
      nr[i] =
          route_anonymity_nr(simulated_data_plane(result.anonymized)).average;
      totals[i] += nr[i];
    }
    std::printf("%-3s %-11s %10.2f %10.2f %10.2f\n", network.id.c_str(),
                network.name.c_str(), nr[0], nr[1], nr[2]);
    bench::csv("fig11," + network.id + "," + std::to_string(nr[0]) + "," +
               std::to_string(nr[1]) + "," + std::to_string(nr[2]));
    ++count;
  }
  std::printf("\naverage N_r: k_R=2: %.2f, k_R=6: %.2f, k_R=10: %.2f\n",
              totals[0] / count, totals[1] / count, totals[2] / count);
  return 0;
}
