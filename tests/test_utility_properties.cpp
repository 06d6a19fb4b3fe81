// Appendix B of the paper proves functional equivalence implies the six
// routing utility properties; here we CHECK them, per network, instead of
// trusting the proof — and show which ones NetHide violates.
#include "src/core/utility_properties.hpp"

#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/nethide/nethide.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

class UtilityProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UtilityProperties, ConfMaskPreservesEverything) {
  const auto networks = evaluation_networks();
  const auto& network = networks[GetParam()];
  ConfMaskOptions options;
  options.seed = 0xFACE + GetParam();
  const auto result = run_confmask(network.configs, options);

  const auto report =
      check_utility_properties(simulated_data_plane(network.configs),
                               simulated_data_plane(result.anonymized));
  EXPECT_TRUE(report.reachability) << network.name;
  EXPECT_TRUE(report.path_lengths) << network.name;
  EXPECT_TRUE(report.waypointing) << network.name;
  EXPECT_TRUE(report.multipath_consistency) << network.name;
  EXPECT_TRUE(report.exact_paths) << network.name;
  EXPECT_TRUE(report.all()) << network.name;
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, UtilityProperties,
                         ::testing::Range<std::size_t>(0, 8));

TEST(UtilityPropertiesNetHide, NetHideBreaksPathProperties) {
  const auto configs = make_fattree04();
  const auto original_dp = [&] {
    const Simulation sim(configs);
    return sim.extract_data_plane();
  }();
  NetHideOptions options;
  options.k_r = 10;
  const auto nethide = run_nethide(configs, options);
  const auto report = check_utility_properties(original_dp,
                                               nethide.data_plane);
  // NetHide keeps hosts reachable...
  EXPECT_TRUE(report.reachability);
  // ...but the path-level properties that make debugging possible die.
  EXPECT_FALSE(report.exact_paths);
  EXPECT_FALSE(report.path_lengths && report.waypointing &&
               report.multipath_consistency);
}

TEST(UtilityPropertiesUnit, DetectsEachViolationKind) {
  DataPlane original;
  original.flows[{"a", "b"}] = {{"a", "r1", "r2", "b"},
                                {"a", "r1", "r3", "b"}};

  {
    DataPlane missing;  // flow gone -> reachability violated
    EXPECT_FALSE(preserves_reachability(original, missing));
  }
  {
    DataPlane longer = original;
    longer.flows[{"a", "b"}] = {{"a", "r1", "r4", "r2", "b"},
                                {"a", "r1", "r3", "b"}};
    EXPECT_TRUE(preserves_reachability(original, longer));
    EXPECT_FALSE(preserves_path_lengths(original, longer));
  }
  {
    DataPlane rerouted = original;
    rerouted.flows[{"a", "b"}] = {{"a", "r9", "r2", "b"},
                                  {"a", "r9", "r3", "b"}};
    // Same lengths and count, but the common router changed.
    EXPECT_TRUE(preserves_path_lengths(original, rerouted));
    EXPECT_TRUE(preserves_multipath_consistency(original, rerouted));
    EXPECT_FALSE(preserves_waypointing(original, rerouted));
  }
  {
    DataPlane collapsed = original;
    collapsed.flows[{"a", "b"}] = {{"a", "r1", "r2", "b"}};
    // ECMP collapsed to a single path.
    EXPECT_FALSE(preserves_multipath_consistency(original, collapsed));
  }
  {
    DataPlane extra = original;
    extra.flows[{"a", "b_1"}] = {{"a", "r1", "b_1"}};
    // Extra (fake-host) flows never violate anything.
    EXPECT_TRUE(check_utility_properties(original, extra).all());
  }
}

TEST(UtilityPropertiesRip, DistanceVectorNetworkEndToEnd) {
  // The full pipeline on a RIP network: exercises the paper's
  // distance-vector SFE conditions (filters propagate, unlike OSPF).
  const auto configs = make_isp_rip("rip", 24, 16, 34, 0x11F);
  ConfMaskOptions options;
  options.k_r = 4;
  options.k_h = 2;
  options.seed = 3;
  const auto result = run_confmask(configs, options);
  EXPECT_TRUE(result.equivalence_converged);
  EXPECT_TRUE(result.functionally_equivalent);
  EXPECT_TRUE(check_utility_properties(simulated_data_plane(configs),
                                       simulated_data_plane(result.anonymized))
                  .all());
}

TEST(UtilityPropertiesRip, StrawmenAlsoConvergeOnRip) {
  const auto configs = make_isp_rip("rip", 16, 10, 22, 0x22F);
  ConfMaskOptions options;
  options.k_r = 4;
  options.seed = 5;
  for (const auto strategy :
       {EquivalenceStrategy::kStrawman1, EquivalenceStrategy::kStrawman2}) {
    const auto result = run_pipeline(configs, options, strategy);
    EXPECT_TRUE(result.functionally_equivalent)
        << static_cast<int>(strategy);
  }
}

}  // namespace
}  // namespace confmask
