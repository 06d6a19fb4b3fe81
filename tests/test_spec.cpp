#include "src/spec/policies.hpp"

#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/nethide/nethide.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

TEST(SpecMiner, MinesReachabilityWaypointLoadBalance) {
  DataPlane dp;
  dp.flows[{"a", "b"}] = {{"a", "r1", "r2", "b"}, {"a", "r1", "r3", "b"}};
  const auto policies = mine_policies(dp);

  EXPECT_TRUE(policies.count(
      Policy{Policy::Kind::kReachability, "a", "b", "", 0}));
  // r1 is on every path -> waypoint; r2/r3 are not.
  EXPECT_TRUE(
      policies.count(Policy{Policy::Kind::kWaypoint, "a", "b", "r1", 0}));
  EXPECT_FALSE(
      policies.count(Policy{Policy::Kind::kWaypoint, "a", "b", "r2", 0}));
  EXPECT_TRUE(
      policies.count(Policy{Policy::Kind::kLoadBalance, "a", "b", "", 2}));
  EXPECT_EQ(policies.size(), 3u);
}

TEST(SpecMiner, SinglePathFlowHasNoLoadBalancePolicy) {
  DataPlane dp;
  dp.flows[{"a", "b"}] = {{"a", "r1", "b"}};
  const auto policies = mine_policies(dp);
  for (const auto& policy : policies) {
    EXPECT_NE(policy.kind, Policy::Kind::kLoadBalance);
  }
}

TEST(SpecMiner, Figure2Waypoints) {
  const auto configs = make_figure2();
  const Simulation sim(configs);
  const auto policies = mine_policies(sim.extract_data_plane());
  // h1 -> h4 passes r1, r3, r2, r4 — all waypoints of that flow.
  for (const char* router : {"r1", "r3", "r2", "r4"}) {
    EXPECT_TRUE(policies.count(
        Policy{Policy::Kind::kWaypoint, "h1", "h4", router, 0}))
        << router;
  }
}

TEST(SpecComparisonTest, IdenticalSpecsKeepEverything) {
  const auto configs = make_figure2();
  const Simulation sim(configs);
  const auto policies = mine_policies(sim.extract_data_plane());
  const auto comparison = compare_policies(policies, policies, {"h1", "h2",
                                                                "h4"});
  EXPECT_DOUBLE_EQ(comparison.kept_fraction(), 1.0);
  EXPECT_EQ(comparison.missing, 0u);
  EXPECT_EQ(comparison.introduced, 0u);
}

TEST(SpecComparisonTest, ConfMaskKeepsAllSpecsIntroductionsAreFake) {
  const auto configs = make_fattree04();
  ConfMaskOptions options;
  options.seed = 61;
  const auto result = run_confmask(configs, options);

  const auto original = mine_policies(simulated_data_plane(configs));
  const auto anonymized =
      mine_policies(simulated_data_plane(result.anonymized));
  std::set<std::string> real_hosts;
  for (const auto& host : configs.hosts) real_hosts.insert(host.hostname);

  const auto comparison =
      compare_policies(original, anonymized, real_hosts);
  // Functional equivalence => every original policy survives.
  EXPECT_DOUBLE_EQ(comparison.kept_fraction(), 1.0);
  // Introductions exist (fake hosts) and are overwhelmingly fake-related
  // (the paper reports 96.9%).
  EXPECT_GT(comparison.introduced, 0u);
  EXPECT_GT(comparison.introduced_fake_share(), 0.9);
}

TEST(SpecComparisonTest, NetHideLosesSpecs) {
  const auto configs = make_fattree04();
  const auto original_dp = [&] {
    const Simulation sim(configs);
    return sim.extract_data_plane();
  }();
  NetHideOptions options;
  options.k_r = 10;  // force fake links on the fat tree
  const auto nethide = run_nethide(configs, options);
  ASSERT_GT(nethide.fake_links, 0u);

  std::set<std::string> real_hosts;
  for (const auto& host : configs.hosts) real_hosts.insert(host.hostname);
  const auto comparison = compare_policies(mine_policies(original_dp),
                                           mine_policies(nethide.data_plane),
                                           real_hosts);
  EXPECT_LT(comparison.kept_fraction(), 1.0);
}

}  // namespace
}  // namespace confmask
