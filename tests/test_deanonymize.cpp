// The adversary's view: which fake-link strategies each attack defeats.
// This encodes the §3.2 narrative as executable checks.
#include "src/core/deanonymize.hpp"

#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

/// Runs only Step 1 with a given cost policy, then Algorithm 1, and
/// returns the intermediate configs (no fake hosts — isolates the link
/// story).
ConfigSet stage12(const ConfigSet& original, FakeLinkCostPolicy policy,
                  int k_r = 4, std::uint64_t seed = 9) {
  ConfMaskOptions options;
  options.k_r = k_r;
  options.k_h = 1;  // no fake hosts
  options.cost_policy = policy;
  options.seed = seed;
  return run_confmask(original, options).anonymized;
}

TEST(Deanonymize, NaiveFakeLinksAreFlaggedAsUnconfigured) {
  // Simulate the §3.2 step-1 naive approach: add a bare interface pair
  // with no protocol coverage.
  auto configs = make_figure2();
  auto* r1 = configs.find_router("r1");
  auto* r4 = configs.find_router("r4");
  InterfaceConfig a;
  a.name = "Ethernet100";
  a.address = Ipv4Address::parse("172.20.0.0");
  a.prefix_length = 31;
  r1->interfaces.push_back(a);
  InterfaceConfig b = a;
  b.name = "Ethernet100";
  b.address = Ipv4Address::parse("172.20.0.1");
  r4->interfaces.push_back(b);

  const auto flagged = unconfigured_interface_links(configs);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(*flagged.begin(), (EdgeName{"r1", "r4"}));
}

TEST(Deanonymize, ConfMaskFakeLinksAreNotUnconfigured) {
  const auto original = make_figure2();
  const auto anonymized = stage12(original, FakeLinkCostPolicy::kMinCost);
  EXPECT_TRUE(unconfigured_interface_links(anonymized).empty());
}

TEST(Deanonymize, LargeCostPolicyIsFullyExposedByZeroTraffic) {
  // §3.2 option (ii): over-priced fake links never carry traffic, so the
  // zero-traffic attack identifies every single one.
  const auto original = make_figure2();
  const auto anonymized = stage12(original, FakeLinkCostPolicy::kLarge);
  const Simulation sim(anonymized);
  const auto flagged = zero_traffic_links(anonymized, sim.extract_data_plane());
  const auto report = score_attack(original, anonymized, flagged);
  ASSERT_GT(report.fake_links, 0u);
  EXPECT_DOUBLE_EQ(report.true_positive_rate(), 1.0);
}

TEST(Deanonymize, MinCostWithFakeHostsCarriesTrafficOnFakeLinks) {
  // The full ConfMask pipeline (fake hosts included) imports traffic onto
  // fake links, so the zero-traffic attack can no longer flag them all.
  const auto original = make_bics();
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.seed = 13;
  const auto result = run_confmask(original, options);
  ASSERT_TRUE(result.functionally_equivalent);

  const auto flagged =
      zero_traffic_links(result.anonymized,
                         simulated_data_plane(result.anonymized));
  const auto cm = score_attack(original, result.anonymized, flagged);

  // Compare with the large-cost ablation on the same network.
  ConfMaskOptions large = options;
  large.cost_policy = FakeLinkCostPolicy::kLarge;
  const auto large_result = run_confmask(original, large);
  const auto large_flagged =
      zero_traffic_links(large_result.anonymized,
                         simulated_data_plane(large_result.anonymized));
  const auto lc = score_attack(original, large_result.anonymized,
                               large_flagged);

  EXPECT_DOUBLE_EQ(lc.true_positive_rate(), 1.0);
  EXPECT_LT(cm.true_positive_rate(), lc.true_positive_rate());
}

TEST(Deanonymize, ScoreAttackSeparatesRealAndFake) {
  const auto original = make_figure2();
  const auto anonymized = stage12(original, FakeLinkCostPolicy::kMinCost);
  // Flag one real and (up to) all fake edges.
  std::set<EdgeName> flagged{{"r1", "r2"}};
  const auto report = score_attack(original, anonymized, flagged);
  EXPECT_EQ(report.flagged_real, 1u);
  EXPECT_EQ(report.flagged_fake, 0u);
}

TEST(Deanonymize, ReidentificationCandidatesMatchKAnonymity) {
  const auto original = make_bics();
  ConfMaskOptions options;
  options.k_r = 6;
  options.seed = 21;
  const auto result = run_confmask(original, options);
  EXPECT_GE(min_reidentification_candidates(result.anonymized), 6);
  // The original network is far more identifiable.
  EXPECT_LT(min_reidentification_candidates(original), 6);
}

TEST(Deanonymize, ZeroTrafficOnOriginalNetworkFlagsLittle) {
  // Sanity: in a real network most links carry some flow; the attack's
  // false-positive base rate is what fake links hide behind.
  const auto original = make_fattree04();
  const Simulation sim(original);
  const auto flagged = zero_traffic_links(original, sim.extract_data_plane());
  EXPECT_TRUE(flagged.empty());  // fat tree ECMP uses every link
}

}  // namespace
}  // namespace confmask
