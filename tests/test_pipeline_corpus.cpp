// Pipeline corpus: every scale family at 316 routers anonymizes and
// verifies on the first attempt at paper defaults, within the paper's
// bound on Algorithm 1's iterations (fake links plus one, §5.4; the loop
// has no cap of its own), and every artifact passes both guarantees as
// checked by code that did not produce it:
//  * functional equivalence — the independent ReferenceSimulation's data
//    plane of the anonymized configs equals that of the originals over the
//    real hosts;
//  * topology anonymity — every AS's router graph, and the AS supergraph
//    when there are several ASes, has no degree class smaller than
//    min(k_R, nodes in that graph).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/pipeline_runner.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/topology.hpp"

namespace confmask {
namespace {

/// Smallest same-degree class of a graph given as neighbor sets.
int smallest_degree_class(const std::vector<std::set<int>>& graph) {
  std::map<std::size_t, int> class_size;
  for (const auto& neighbors : graph) ++class_size[neighbors.size()];
  int smallest = static_cast<int>(graph.size());
  for (const auto& [degree, size] : class_size) {
    smallest = std::min(smallest, size);
  }
  return smallest;
}

/// Checks the two-level degree-class floor of `configs` at `k_r`; returns
/// a description of the first graph below its floor, or "" when all meet
/// it.
std::string degree_floor_violation(const ConfigSet& configs, int k_r) {
  const Topology topo = Topology::build(configs);
  std::map<int, std::vector<int>> members;  // AS (-1: no BGP) -> routers
  std::vector<int> as_of(static_cast<std::size_t>(topo.router_count()));
  for (int r = 0; r < topo.router_count(); ++r) {
    const RouterConfig& router = configs.routers[static_cast<std::size_t>(
        topo.node(r).config_index)];
    as_of[static_cast<std::size_t>(r)] =
        router.bgp ? router.bgp->local_as : -1;
    members[as_of[static_cast<std::size_t>(r)]].push_back(r);
  }
  std::map<int, int> local;     // router -> id inside its AS graph
  std::map<int, int> as_index;  // AS -> id inside the supergraph
  std::map<int, std::vector<std::set<int>>> intra;
  for (const auto& [as_number, routers] : members) {
    const int index = static_cast<int>(as_index.size());
    as_index[as_number] = index;
    intra[as_number].resize(routers.size());
    for (std::size_t i = 0; i < routers.size(); ++i) {
      local[routers[i]] = static_cast<int>(i);
    }
  }
  std::vector<std::set<int>> inter(as_index.size());
  for (const Link& link : topo.links()) {
    const int a = link.a.node;
    const int b = link.b.node;
    if (!topo.is_router(a) || !topo.is_router(b)) continue;
    const int as_a = as_of[static_cast<std::size_t>(a)];
    const int as_b = as_of[static_cast<std::size_t>(b)];
    if (as_a == as_b) {
      intra[as_a][static_cast<std::size_t>(local[a])].insert(local[b]);
      intra[as_a][static_cast<std::size_t>(local[b])].insert(local[a]);
    } else {
      inter[static_cast<std::size_t>(as_index[as_a])].insert(as_index[as_b]);
      inter[static_cast<std::size_t>(as_index[as_b])].insert(as_index[as_a]);
    }
  }

  const auto check = [&](const std::vector<std::set<int>>& graph,
                         const std::string& name) -> std::string {
    const int floor = std::min(k_r, static_cast<int>(graph.size()));
    const int achieved = smallest_degree_class(graph);
    if (achieved >= floor) return "";
    return name + ": smallest degree class " + std::to_string(achieved) +
           " < " + std::to_string(floor);
  };
  for (const auto& [as_number, graph] : intra) {
    if (auto violation = check(graph, "AS " + std::to_string(as_number));
        !violation.empty()) {
      return violation;
    }
  }
  return members.size() > 1 ? check(inter, "AS supergraph") : "";
}

class PipelineCorpus
    : public ::testing::TestWithParam<std::tuple<ScaleFamily, int>> {};

TEST_P(PipelineCorpus, VerifiesFirstAttemptAndPassesIndependentChecks) {
  const auto [family, seed] = GetParam();
  const ConfigSet original = make_scale_network(family, 316, seed);
  ConfMaskOptions options;  // paper defaults: k_R=6, k_H=2, p=0.1
  options.seed = static_cast<std::uint64_t>(seed);

  const auto run = run_pipeline_guarded(original, options);
  ASSERT_TRUE(run.ok()) << run.diagnostics.message;
  EXPECT_EQ(run.diagnostics.attempts, 1);
  EXPECT_TRUE(run.diagnostics.fallbacks.empty());
  const PipelineStats& stats = run.result->stats;
  EXPECT_LE(stats.equivalence_iterations,
            static_cast<int>(stats.fake_intra_links + stats.fake_inter_links) +
                1);
  const ConfigSet& anonymized = run.result->anonymized;

  const ReferenceSimulation original_sim(original);
  const DataPlane original_dp = original_sim.extract_data_plane();
  ASSERT_FALSE(original_sim.last_extraction_truncated());
  const ReferenceSimulation anonymized_sim(anonymized);
  const DataPlane anonymized_dp = anonymized_sim.extract_data_plane();
  ASSERT_FALSE(anonymized_sim.last_extraction_truncated());
  std::set<std::string> real_hosts;
  for (const auto& host : original.hosts) real_hosts.insert(host.hostname);
  EXPECT_TRUE(anonymized_dp.equals_restricted(original_dp, real_hosts));

  EXPECT_EQ(degree_floor_violation(anonymized, options.k_r), "");
}

INSTANTIATE_TEST_SUITE_P(
    ScaleFamilies316, PipelineCorpus,
    ::testing::Combine(
        ::testing::Values(ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip,
                          ScaleFamily::kMultiAs,
                          ScaleFamily::kPreferentialAttachment),
        ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      std::string name = scale_family_name(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace confmask
