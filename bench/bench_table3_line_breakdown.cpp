// Table 3 (Appendix C): number of configuration lines added by ConfMask,
// broken down into routing-protocol / filter / interface lines, for the
// parameter sweep the paper reports.
#include "bench/bench_common.hpp"

int main() {
  using namespace confmask;
  bench::header("Table 3: added-line breakdown per component",
                "filters dominate; k_R and k_H both push line counts up");
  std::printf("%-28s %10s %8s %11s %8s %8s\n", "Network, parameters",
              "#protocol", "#filter", "#interface", "#added", "#total");

  struct Case {
    const char* id;
    int k_r;
    int k_h;
  };
  // The paper sweeps BICS, Columbus, CCNP (~network B here), FatTree-08
  // and USCarrier.
  const Case cases[] = {
      {"D", 2, 2}, {"D", 6, 2}, {"D", 6, 4}, {"D", 10, 2},
      {"E", 2, 2}, {"E", 6, 2}, {"E", 6, 4}, {"E", 10, 2},
      {"B", 2, 2}, {"B", 6, 2}, {"B", 6, 4}, {"B", 10, 2},
      {"H", 2, 2}, {"H", 6, 2}, {"H", 6, 4}, {"H", 10, 2},
      {"F", 6, 2},
  };
  for (const auto& test_case : cases) {
    const EvalNetwork* network = nullptr;
    for (const auto& candidate : bench::networks()) {
      if (candidate.id == test_case.id) network = &candidate;
    }
    auto options = bench::default_options();
    options.k_r = test_case.k_r;
    options.k_h = test_case.k_h;
    const auto result = run_confmask(network->configs, options);
    const auto lines = bundle_line_stats(network->configs, result.anonymized);
    const auto added = lines.anonymized - lines.original;
    const std::string label = network->name + ", kR=" +
                              std::to_string(test_case.k_r) +
                              ", kH=" + std::to_string(test_case.k_h);
    std::printf("%-28s %10zu %8zu %11zu %8zu %8zu\n", label.c_str(),
                added.protocol, added.filter, added.interface,
                added.total(), lines.anonymized.total());
    bench::csv("table3," + std::string(network->id) + "," +
               std::to_string(test_case.k_r) + "," +
               std::to_string(test_case.k_h) + "," +
               std::to_string(added.protocol) + "," +
               std::to_string(added.filter) + "," +
               std::to_string(added.interface) + "," +
               std::to_string(added.total()) + "," +
               std::to_string(lines.anonymized.total()));
  }
  return 0;
}
