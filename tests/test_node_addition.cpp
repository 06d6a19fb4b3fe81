// The §9 network-scale obfuscation extension: fake routers must blend in,
// preserve functional equivalence, and change the apparent network scale.
#include "src/core/node_addition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "src/core/confmask.hpp"
#include "src/core/deanonymize.hpp"
#include "src/core/metrics.hpp"
#include "src/core/utility_properties.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

TEST(NodeAddition, FakeRoutersBlendIntoTheNamingScheme) {
  const auto original = make_bics();
  const Simulation sim(original);
  ConfigSet configs = original;
  PrefixAllocator allocator;
  for (const auto& p : original.used_prefixes()) allocator.reserve(p);
  Rng rng(4);
  NodeAdditionOptions options;
  options.fake_routers = 3;
  const auto outcome = add_fake_routers(configs, sim, options, rng, allocator);

  ASSERT_EQ(outcome.fake_routers.size(), 3u);
  for (const auto& name : outcome.fake_routers) {
    EXPECT_EQ(name.substr(0, 4), "bics") << name;
    const auto* router = configs.find_router(name);
    ASSERT_NE(router, nullptr);
    EXPECT_TRUE(router->ospf.has_value());
    // Copies the template's boilerplate shape.
    EXPECT_FALSE(router->extra_lines.empty());
    EXPECT_FALSE(router->interfaces.empty());
  }
  EXPECT_EQ(outcome.fake_hosts.size(), 3u);
  EXPECT_EQ(outcome.links.size(), 3u * 2u);
}

TEST(NodeAddition, ZeroFakeRoutersIsNoOp) {
  const auto original = make_figure2();
  const Simulation sim(original);
  ConfigSet configs = original;
  PrefixAllocator allocator;
  Rng rng(4);
  const auto outcome =
      add_fake_routers(configs, sim, NodeAdditionOptions{}, rng, allocator);
  EXPECT_TRUE(outcome.fake_routers.empty());
  EXPECT_EQ(configs.routers.size(), original.routers.size());
}

// Route safety rests on the fake links' price: every link of fake router
// x costs max(1, ceil(D/2)), D the largest original IGP distance between
// x's neighbours, so no path through x undercuts an original path.
TEST(NodeAddition, FakeLinksCostHalfTheLongestNeighbourDistance) {
  // Waxman link costs vary, so neighbour distances come out odd as well
  // as even (the hand-built networks cost every link 10).
  const auto original = make_scale_network(ScaleFamily::kWaxman, 60, 5);
  const Simulation sim(original);
  const Topology& topo = sim.topology();
  ConfigSet configs = original;
  PrefixAllocator allocator;
  for (const auto& p : original.used_prefixes()) allocator.reserve(p);
  Rng rng(1);
  NodeAdditionOptions options;
  options.fake_routers = 4;
  options.links_per_fake = 3;
  const auto outcome = add_fake_routers(configs, sim, options, rng, allocator);
  ASSERT_EQ(outcome.links.size(), 4u * 3u);

  const auto cost_towards = [&](const std::string& router,
                                const std::string& peer) {
    for (const auto& iface : configs.find_router(router)->interfaces) {
      if (iface.description == "to-" + peer) return iface.ospf_cost;
    }
    return std::optional<int>{};
  };
  bool saw_odd_distance = false;
  for (const auto& fake : outcome.fake_routers) {
    std::vector<std::string> neighbors;
    for (const auto& [from, to] : outcome.links) {
      if (from == fake) neighbors.push_back(to);
    }
    // Ordered pairs: per-side link costs make D(a→b) and D(b→a) differ,
    // and a path through the fake router must not undercut either.
    long longest = 0;
    for (const auto& from : neighbors) {
      std::vector<int> targets;
      for (const auto& to : neighbors) {
        if (from != to) targets.push_back(topo.find_node(to));
      }
      for (const long d : sim.igp_distances(topo.find_node(from), targets)) {
        longest = std::max(longest, d);
      }
    }
    const int expected = static_cast<int>(std::max(1L, (longest + 1) / 2));
    saw_odd_distance = saw_odd_distance || longest % 2 == 1;
    for (const auto& neighbor : neighbors) {
      EXPECT_EQ(cost_towards(fake, neighbor), expected) << fake;
      EXPECT_EQ(cost_towards(neighbor, fake), expected) << neighbor;
    }
  }
  // The pin must see an odd distance, where rounding up matters.
  EXPECT_TRUE(saw_odd_distance);
}

class NodeAdditionE2E : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NodeAdditionE2E, PipelineStaysFunctionallyEquivalent) {
  const auto networks = evaluation_networks();
  const auto& network = networks[GetParam()];
  ConfMaskOptions options;
  options.fake_routers = 4;
  options.seed = 0xADD + GetParam();
  const auto result = run_confmask(network.configs, options);

  EXPECT_TRUE(result.functionally_equivalent) << network.name;
  EXPECT_EQ(result.fake_routers.size(), 4u);
  EXPECT_EQ(result.anonymized.routers.size(),
            network.configs.routers.size() + 4u);
  EXPECT_TRUE(check_utility_properties(simulated_data_plane(network.configs),
                                       simulated_data_plane(result.anonymized))
                  .all())
      << network.name;
  // The augmented router graph is still k-degree anonymous.
  EXPECT_GE(min_reidentification_candidates(result.anonymized),
            std::min<int>(options.k_r,
                          min_reidentification_candidates(result.anonymized)));
}

// A (BGP, small), D (ISP), G (fat tree).
INSTANTIATE_TEST_SUITE_P(Networks, NodeAdditionE2E,
                         ::testing::Values(0u, 3u, 6u));

TEST(NodeAddition, FakeRoutersCarryTrafficAndEvadeZeroTrafficAttack) {
  const auto original = make_bics();
  ConfMaskOptions options;
  options.fake_routers = 4;
  options.seed = 15;
  const auto result = run_confmask(original, options);
  ASSERT_TRUE(result.functionally_equivalent);

  // Each fake router terminates a fake host, so at least its host-facing
  // traffic exists: the fake router must appear in some data-plane path.
  std::set<std::string> seen;
  for (const auto& [flow, paths] :
       simulated_data_plane(result.anonymized).flows) {
    for (const auto& path : paths) {
      for (const auto& hop : path) seen.insert(hop);
    }
  }
  for (const auto& name : result.fake_routers) {
    EXPECT_TRUE(seen.count(name) != 0) << name;
  }
}

TEST(NodeAddition, ApparentScaleGrows) {
  const auto original = make_backbone();
  ConfMaskOptions options;
  options.fake_routers = 5;
  options.seed = 77;
  const auto result = run_confmask(original, options);
  ASSERT_TRUE(result.functionally_equivalent);
  const auto topo = Topology::build(result.anonymized);
  EXPECT_EQ(topo.router_count(),
            static_cast<int>(original.routers.size()) + 5);
}

}  // namespace
}  // namespace confmask
