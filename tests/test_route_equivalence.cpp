// Algorithm 1 in isolation, including the §3.2 strawman cost-policy
// trichotomy: only the min-cost policy lets filters restore the exact
// data plane under link-state install-time semantics.
#include "src/core/route_equivalence.hpp"

#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/core/topology_anonymization.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

struct Prepared {
  ConfigSet configs;
  OriginalIndex index;
  TopologyAnonymizationOutcome topo_outcome;
};

Prepared prepare(const ConfigSet& original, int k_r,
                 FakeLinkCostPolicy policy, std::uint64_t seed = 3) {
  const Simulation sim(original);
  Prepared prepared{original, OriginalIndex(sim), {}};
  PrefixAllocator allocator;
  for (const auto& prefix : original.used_prefixes()) {
    allocator.reserve(prefix);
  }
  Rng rng(seed);
  prepared.topo_outcome = anonymize_topology(prepared.configs, &sim, k_r,
                                             policy, rng, allocator);
  return prepared;
}

bool equivalent(const Prepared& prepared) {
  const Simulation sim(prepared.configs);
  return sim.extract_data_plane().restricted_to(
             prepared.index.real_hosts()) == prepared.index.data_plane();
}

TEST(RouteEquivalence, Figure2MinCostConverges) {
  // k_r = 4 forces all four routers to the same degree — fake links are
  // guaranteed. With min-cost pricing, equal-cost paths appear through the
  // fake links and Algorithm 1 must reject them.
  auto prepared = prepare(make_figure2(), 4, FakeLinkCostPolicy::kMinCost);
  ASSERT_GT(prepared.topo_outcome.total_links(), 0u);

  const auto outcome = enforce_route_equivalence(prepared.configs,
                                                 prepared.index);
  EXPECT_TRUE(outcome.converged);
  EXPECT_TRUE(equivalent(prepared));
}

TEST(RouteEquivalence, Figure2DefaultCostCannotBeFixed) {
  // Default-cost fake links create strictly shorter link-state paths;
  // filters can only black-hole, not restore (the §3.2 lesson). The
  // algorithm converges (no fake next hops remain) but the data plane is
  // NOT the original.
  auto prepared = prepare(make_figure2(), 4, FakeLinkCostPolicy::kDefault);
  ASSERT_GT(prepared.topo_outcome.total_links(), 0u);

  (void)enforce_route_equivalence(prepared.configs, prepared.index);
  EXPECT_FALSE(equivalent(prepared));
}

TEST(RouteEquivalence, Figure2LargeCostNeedsNoFilters) {
  // Over-priced fake links never attract traffic: the data plane is
  // already equivalent, and Algorithm 1 must add zero filters (which is
  // exactly what makes this policy identifiable, §3.2 option ii).
  auto prepared = prepare(make_figure2(), 4, FakeLinkCostPolicy::kLarge);
  ASSERT_GT(prepared.topo_outcome.total_links(), 0u);

  const auto outcome = enforce_route_equivalence(prepared.configs,
                                                 prepared.index);
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.filters_added, 0);
  EXPECT_TRUE(equivalent(prepared));
}

TEST(RouteEquivalence, FiltersTargetOnlyFakeScopes) {
  auto prepared = prepare(make_bics(), 6, FakeLinkCostPolicy::kMinCost);
  (void)enforce_route_equivalence(prepared.configs, prepared.index);

  // Any interface carrying a distribute-list must be a fake-link end:
  // its link peer must NOT be an original neighbor.
  const Topology topo = Topology::build(prepared.configs);
  const std::vector<int> original = prepared.index.original_ids(topo);
  for (const auto& router : prepared.configs.routers) {
    if (!router.ospf) continue;
    for (const auto& dl : router.ospf->distribute_lists) {
      const int node = topo.find_node(router.hostname);
      bool found_fake_peer = false;
      for (int link_id : topo.links_of(node)) {
        const Link& link = topo.link(link_id);
        if (link.end_of(node).interface != dl.interface) continue;
        const int peer = link.other_end(node).node;
        EXPECT_FALSE(prepared.index.is_original_edge(
            original[static_cast<std::size_t>(node)],
            original[static_cast<std::size_t>(peer)]))
            << router.hostname << " filters real neighbor "
            << topo.node(peer).name;
        found_fake_peer = true;
      }
      EXPECT_TRUE(found_fake_peer) << router.hostname << " " << dl.interface;
    }
  }
}

TEST(RouteEquivalence, IterationBoundHolds) {
  for (const auto maker : {make_bics, make_enterprise, make_university}) {
    auto prepared = prepare(maker(), 6, FakeLinkCostPolicy::kMinCost);
    const auto outcome =
        enforce_route_equivalence(prepared.configs, prepared.index);
    EXPECT_TRUE(outcome.converged);
    EXPECT_LE(outcome.iterations,
              static_cast<int>(prepared.topo_outcome.total_links()) + 1);
  }
}

TEST(RouteEquivalence, IdempotentOnceConverged) {
  auto prepared = prepare(make_university(), 6, FakeLinkCostPolicy::kMinCost);
  (void)enforce_route_equivalence(prepared.configs, prepared.index);
  const auto again =
      enforce_route_equivalence(prepared.configs, prepared.index);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.filters_added, 0);
  EXPECT_EQ(again.iterations, 1);
}

TEST(RouteEquivalence, NoFakeLinksNoFilters) {
  const auto original = make_fattree04();  // already 6-degree anonymous
  const Simulation sim(original);
  OriginalIndex index(sim);
  ConfigSet configs = original;
  const auto outcome = enforce_route_equivalence(configs, index);
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.filters_added, 0);
}

}  // namespace
}  // namespace confmask
