// Figure 12: impact of k_H on route anonymity N_r (k_R = 6). The paper:
// N_r grows with k_H (averages 2.05 / 2.29 / 2.54 at k_H = 2, 4, 6).
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header("Figure 12: k_H vs N_r (k_R=6)",
                "route anonymity grows with the number of fake hosts");
  const int khs[] = {2, 4, 6};
  std::printf("%-3s %-11s %10s %10s %10s\n", "ID", "Network", "k_H=2",
              "k_H=4", "k_H=6");
  double totals[3] = {0, 0, 0};
  int count = 0;
  for (const auto& network : bench::networks()) {
    double nr[3];
    for (int i = 0; i < 3; ++i) {
      auto options = bench::default_options();
      options.k_h = khs[i];
      const auto result = run_confmask(network.configs, options);
      nr[i] =
          route_anonymity_nr(simulated_data_plane(result.anonymized)).average;
      totals[i] += nr[i];
    }
    std::printf("%-3s %-11s %10.2f %10.2f %10.2f\n", network.id.c_str(),
                network.name.c_str(), nr[0], nr[1], nr[2]);
    bench::csv("fig12," + network.id + "," + std::to_string(nr[0]) + "," +
               std::to_string(nr[1]) + "," + std::to_string(nr[2]));
    ++count;
  }
  std::printf("\naverage N_r: k_H=2: %.2f, k_H=4: %.2f, k_H=6: %.2f\n",
              totals[0] / count, totals[1] / count, totals[2] / count);
  return 0;
}
