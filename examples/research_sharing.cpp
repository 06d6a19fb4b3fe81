// Research-sharing pipeline: anonymize an ISP-scale network for release,
// write the anonymized configuration files to disk, then re-ingest them
// exactly like a third-party researcher would — parse, simulate, mine
// specifications — and verify that (a) the research value survived and
// (b) the sensitive facts did not.
//
//   $ ./research_sharing [output-dir]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"
#include "src/spec/policies.hpp"

int main(int argc, char** argv) {
  using namespace confmask;
  namespace fs = std::filesystem;
  const fs::path out_dir = argc > 1 ? argv[1] : "anonymized_configs";

  // The data holder's network: an ISP-style OSPF deployment.
  const ConfigSet original = make_bics();
  std::printf("data holder's network: %zu routers, %zu hosts\n",
              original.routers.size(), original.hosts.size());

  // Anonymize for publication.
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.seed = 0xBEEF;
  const auto result = run_confmask(original, options);
  const auto lines = bundle_line_stats(original, result.anonymized);
  std::printf("anonymized in %.2fs: +%zu fake links, +%zu fake hosts, "
              "U_C %.1f%%\n",
              result.stats.seconds,
              result.stats.fake_intra_links + result.stats.fake_inter_links,
              result.stats.fake_hosts,
              100.0 * config_utility(lines.original, lines.anonymized));
  if (!result.functionally_equivalent) {
    std::printf("functional equivalence verification FAILED — not sharing\n");
    return 1;
  }

  // Write the shareable artifact.
  fs::create_directories(out_dir);
  for (const auto& router : result.anonymized.routers) {
    std::ofstream(out_dir / (router.hostname + ".cfg")) << emit_router(router);
  }
  for (const auto& host : result.anonymized.hosts) {
    std::ofstream(out_dir / (host.hostname + ".cfg")) << emit_host(host);
  }
  std::printf("wrote %zu configuration files to %s\n",
              result.anonymized.routers.size() +
                  result.anonymized.hosts.size(),
              out_dir.string().c_str());

  // --- The researcher's side: ingest the published files. ---
  ConfigSet received;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    std::ifstream in(entry.path());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (looks_like_host(text)) {
      received.hosts.push_back(parse_host(text));
    } else {
      received.routers.push_back(parse_router(text));
    }
  }
  const Simulation sim(received);
  const auto dp = sim.extract_data_plane();
  const auto policies = mine_policies(dp);
  std::printf("\nresearcher ingests the artifact: %zu devices, %zu flows, "
              "%zu mined policies\n",
              received.routers.size() + received.hosts.size(),
              dp.flows.size(), policies.size());

  // Research value: every policy of the original network still holds.
  const auto original_policies = mine_policies(simulated_data_plane(original));
  std::set<std::string> real_hosts;
  for (const auto& host : original.hosts) real_hosts.insert(host.hostname);
  const auto comparison =
      compare_policies(original_policies, policies, real_hosts);
  std::printf("original policies preserved: %.1f%% (%zu/%zu)\n",
              100.0 * comparison.kept_fraction(), comparison.kept,
              comparison.original_total);

  // Privacy: what the researcher can infer about the topology is
  // k-anonymous.
  std::printf("researcher-visible topology: every router degree shared by "
              ">= %d routers (k_R = %d requested)\n",
              topology_min_degree_class(received), options.k_r);
  const auto nr = route_anonymity_nr(dp);
  std::printf("researcher-visible routes: avg %.2f candidate paths per "
              "edge-router pair\n",
              nr.average);
  return 0;
}
