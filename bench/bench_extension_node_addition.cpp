// Extension (§9): network-scale obfuscation via fake routers. For each
// network we add 0 / 10% / 25% fake routers and report the apparent
// scale, functional equivalence, the injected-line cost, and the
// zero-traffic attack's view of the augmented topology.
#include "bench/bench_common.hpp"
#include "src/core/deanonymize.hpp"
#include "src/routing/topology.hpp"

int main() {
  using namespace confmask;
  bench::header("Extension: fake-router scale obfuscation (k_R=6, k_H=2)",
                "the paper's §9 future-work feature: |R| becomes fuzzy too");
  std::printf("%-3s %-11s %7s %9s %9s %4s %8s %12s\n", "ID", "Network",
              "+fakes", "R(orig)", "R(anon)", "FE", "U_C", "0-traffic");
  for (const auto& network : bench::networks()) {
    const auto topo = Topology::build(network.configs);
    for (const double fraction : {0.0, 0.10, 0.25}) {
      auto options = bench::default_options();
      options.fake_routers =
          static_cast<int>(fraction * topo.router_count());
      const auto result = run_confmask(network.configs, options);
      const auto lines = bundle_line_stats(network.configs, result.anonymized);
      const auto anon_topo = Topology::build(result.anonymized);
      const auto flagged =
          zero_traffic_links(result.anonymized,
                             simulated_data_plane(result.anonymized));
      const auto attack =
          score_attack(network.configs, result.anonymized, flagged);
      const double uc = config_utility(lines.original, lines.anonymized);
      std::printf("%-3s %-11s %7d %9d %9d %4s %7.1f%% %10.0f%%\n",
                  network.id.c_str(), network.name.c_str(),
                  options.fake_routers, topo.router_count(),
                  anon_topo.router_count(),
                  result.functionally_equivalent ? "yes" : "NO", 100.0 * uc,
                  100.0 * attack.true_positive_rate());
      bench::csv("ext_nodes," + network.id + "," +
                 std::to_string(options.fake_routers) + "," +
                 std::to_string(anon_topo.router_count()) + "," +
                 (result.functionally_equivalent ? "1" : "0") + "," +
                 std::to_string(uc) + "," +
                 std::to_string(attack.true_positive_rate()));
    }
  }
  return 0;
}
