// Ablation: the §3.2 fake-link cost trichotomy, measured.
//
// For each cost policy we report (a) whether functional equivalence is
// achievable at all, (b) how many equivalence filters Algorithm 1 needs,
// and (c) how exposed the fake links are to the zero-traffic
// de-anonymization attack. This is the quantified version of the paper's
// design argument for cost = min_cost:
//   default cost  -> breaks the data plane (link-state filters cannot
//                    restore strictly-shorter paths);
//   large cost    -> equivalent, but every fake link carries zero traffic
//                    and is identified by the attack (TPR 1.0);
//   min cost      -> equivalent AND fake links import fake-host traffic,
//                    hiding from the attack.
#include "bench/bench_common.hpp"
#include "src/core/deanonymize.hpp"

int main() {
  using namespace confmask;
  bench::header("Ablation: fake-link cost policy (k_R=6, k_H=2)",
                "only min_cost is both equivalent and attack-resistant");
  std::printf("%-3s %-9s | %3s %8s %12s | %3s %8s %12s | %3s %8s %12s\n",
              "", "", "FE", "filters", "0-traffic", "FE", "filters",
              "0-traffic", "FE", "filters", "0-traffic");
  std::printf("%-3s %-9s | %-26s | %-26s | %-26s\n", "ID", "Network",
              "        min_cost", "        default", "        large");

  const FakeLinkCostPolicy policies[] = {FakeLinkCostPolicy::kMinCost,
                                         FakeLinkCostPolicy::kDefault,
                                         FakeLinkCostPolicy::kLarge};
  for (const auto& network : bench::networks()) {
    std::string row;
    char buffer[128];
    std::string csv_row = "ablation_cost," + network.id;
    for (const auto policy : policies) {
      auto options = bench::default_options();
      options.cost_policy = policy;
      const auto result = run_confmask(network.configs, options);
      const auto flagged =
          zero_traffic_links(result.anonymized,
                             simulated_data_plane(result.anonymized));
      const auto attack =
          score_attack(network.configs, result.anonymized, flagged);
      std::snprintf(buffer, sizeof buffer, " %3s %8d %10.0f%% |",
                    result.functionally_equivalent ? "yes" : "NO",
                    result.stats.equivalence_filters,
                    100.0 * attack.true_positive_rate());
      row += buffer;
      csv_row += std::string(",") +
                 (result.functionally_equivalent ? "1" : "0") + "," +
                 std::to_string(result.stats.equivalence_filters) + "," +
                 std::to_string(attack.true_positive_rate());
    }
    std::printf("%-3s %-9s |%s\n", network.id.c_str(), network.name.c_str(),
                row.c_str());
    bench::csv(csv_row);
  }
  return 0;
}
