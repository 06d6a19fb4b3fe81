// Figure 10: route anonymity (left) and configuration utility (right) of
// ConfMask vs the two strawman route-fixing baselines. The paper: average
// N_r 1.98 / 1.83 / 1.81, and strawman 1 injects ~21% more lines than
// ConfMask while strawman 2 injects ~13% fewer.
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header(
      "Figure 10: ConfMask vs strawman 1/2 (k_R=6, k_H=2)",
      "similar N_r across all three; strawman1 injects the most lines");
  std::printf("%-3s %-11s | %7s %7s %7s | %9s %9s %9s\n", "ID", "Network",
              "Nr(CM)", "Nr(S1)", "Nr(S2)", "lines(CM)", "lines(S1)",
              "lines(S2)");

  double nr_totals[3] = {0, 0, 0};
  std::size_t line_totals[3] = {0, 0, 0};
  int count = 0;
  for (const auto& network : bench::networks()) {
    const auto options = bench::default_options();
    const PipelineResult results[3] = {
        run_pipeline(network.configs, options, EquivalenceStrategy::kConfMask),
        run_pipeline(network.configs, options,
                     EquivalenceStrategy::kStrawman1),
        run_pipeline(network.configs, options,
                     EquivalenceStrategy::kStrawman2),
    };
    double nr[3];
    std::size_t lines[3];
    for (int i = 0; i < 3; ++i) {
      nr[i] = route_anonymity_nr(simulated_data_plane(results[i].anonymized))
                  .average;
      lines[i] =
          bundle_line_stats(network.configs, results[i].anonymized).added();
      nr_totals[i] += nr[i];
      line_totals[i] += lines[i];
    }
    std::printf("%-3s %-11s | %7.2f %7.2f %7.2f | %9zu %9zu %9zu\n",
                network.id.c_str(), network.name.c_str(), nr[0], nr[1], nr[2],
                lines[0], lines[1], lines[2]);
    bench::csv("fig10," + network.id + "," + std::to_string(nr[0]) + "," +
               std::to_string(nr[1]) + "," + std::to_string(nr[2]) + "," +
               std::to_string(lines[0]) + "," + std::to_string(lines[1]) +
               "," + std::to_string(lines[2]));
    ++count;
  }
  std::printf("\naverage N_r: ConfMask %.2f, strawman1 %.2f, strawman2 %.2f\n",
              nr_totals[0] / count, nr_totals[1] / count, nr_totals[2] / count);
  std::printf(
      "total injected lines: ConfMask %zu, strawman1 %zu (%+.1f%%), "
      "strawman2 %zu (%+.1f%%)\n",
      line_totals[0], line_totals[1],
      100.0 * (static_cast<double>(line_totals[1]) / line_totals[0] - 1.0),
      line_totals[2],
      100.0 * (static_cast<double>(line_totals[2]) / line_totals[0] - 1.0));
  return 0;
}
