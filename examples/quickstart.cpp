// Quickstart: anonymize the paper's Figure 2 example network and inspect
// what ConfMask did.
//
//   $ ./quickstart
//
// Builds the four-router OSPF network (costs 1 on r1-r3 and r3-r2, so the
// only h1->h4 path is h1,r1,r3,r2,r4,h4), runs the full ConfMask pipeline,
// and prints: the fake links and hosts added, the preserved data plane,
// and one anonymized router configuration.
#include <cstdio>

#include "src/config/emit.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"

int main() {
  using namespace confmask;

  // 1. The network to share: the paper's Fig 2 example.
  const ConfigSet original = make_figure2();
  std::printf("original network: %zu routers, %zu hosts, %zu config lines\n",
              original.routers.size(), original.hosts.size(),
              config_set_total_lines(original));

  // 2. Anonymize. k_r: every router degree shared by >= 4 routers;
  //    k_h: every host hidden among 2 candidates.
  ConfMaskOptions options;
  options.k_r = 4;
  options.k_h = 2;
  options.seed = 2024;
  const PipelineResult result = run_confmask(original, options);
  const BundleLineStats lines = bundle_line_stats(original, result.anonymized);

  std::printf("\n--- what ConfMask did ---\n");
  std::printf("fake links added:       %zu\n",
              result.stats.fake_intra_links + result.stats.fake_inter_links);
  std::printf("fake hosts added:       %zu (%s...)\n",
              result.stats.fake_hosts,
              result.fake_hosts.empty() ? "-" : result.fake_hosts[0].c_str());
  std::printf("equivalence filters:    %d (in %d iterations)\n",
              result.stats.equivalence_filters,
              result.stats.equivalence_iterations);
  std::printf("anonymity filters:      %d (+%d rolled back)\n",
              result.stats.anonymity_filters,
              result.stats.anonymity_rollbacks);
  std::printf("lines injected:         %zu (U_C = %.1f%%)\n",
              lines.added(),
              100.0 * config_utility(lines.original, lines.anonymized));

  // 3. The guarantee: every real host-to-host path is EXACTLY preserved.
  std::printf("\nfunctionally equivalent: %s\n",
              result.functionally_equivalent ? "yes" : "NO (bug!)");
  const DataPlane anonymized_dp = simulated_data_plane(result.anonymized);
  const auto it = anonymized_dp.flows.find({"h1", "h4"});
  if (it != anonymized_dp.flows.end()) {
    std::printf("h1 -> h4 in the anonymized network:");
    for (const auto& hop : it->second.front()) std::printf(" %s", hop.c_str());
    std::printf("\n");
  }

  // 4. Privacy achieved.
  std::printf("topology k-anonymity:   every degree shared by >= %d routers\n",
              topology_min_degree_class(result.anonymized));
  const auto nr = route_anonymity_nr(anonymized_dp);
  std::printf("route anonymity N_r:    avg %.2f over %zu edge-router pairs\n",
              nr.average, nr.pairs);

  // 5. What the shared artifact looks like.
  std::printf("\n--- anonymized configuration of r1 ---\n%s",
              emit_router(*result.anonymized.find_router("r1")).c_str());
  return 0;
}
