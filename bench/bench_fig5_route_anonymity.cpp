// Figure 5: average (and minimum) number of distinct paths between edge
// routers N_r after anonymization, k_R = 6, k_H = 2.
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header("Figure 5: route anonymity N_r (k_R=6, k_H=2)",
                "average ~1.93 distinct routing paths per edge-router pair");
  std::printf("%-3s %-11s %12s %12s %10s %10s\n", "ID", "Network",
              "Nr(orig,avg)", "Nr(anon,avg)", "Nr(min)", "FE");
  double total = 0.0;
  int count = 0;
  for (const auto& network : bench::networks()) {
    const auto result = run_confmask(network.configs, bench::default_options());
    const auto original =
        route_anonymity_nr(simulated_data_plane(network.configs));
    const auto anonymized =
        route_anonymity_nr(simulated_data_plane(result.anonymized));
    std::printf("%-3s %-11s %12.2f %12.2f %10d %10s\n", network.id.c_str(),
                network.name.c_str(), original.average, anonymized.average,
                anonymized.minimum,
                result.functionally_equivalent ? "yes" : "NO");
    bench::csv("fig5," + network.id + "," + std::to_string(original.average) +
               "," + std::to_string(anonymized.average) + "," +
               std::to_string(anonymized.minimum));
    total += anonymized.average;
    ++count;
  }
  std::printf("\naverage N_r across networks: %.2f\n", total / count);
  return 0;
}
