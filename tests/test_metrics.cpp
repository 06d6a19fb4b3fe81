#include "src/core/metrics.hpp"

#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

DataPlane dp_of(const ConfigSet& configs) {
  const Simulation sim(configs);
  return sim.extract_data_plane();
}

TEST(Metrics, RouteAnonymityOnSinglePathNetwork) {
  const auto metric = route_anonymity_nr(dp_of(make_figure2()));
  EXPECT_GT(metric.pairs, 0u);
  EXPECT_EQ(metric.minimum, 1);
  EXPECT_DOUBLE_EQ(metric.average, 1.0);
}

TEST(Metrics, RouteAnonymityCountsEcmpAlternatives) {
  const auto metric = route_anonymity_nr(dp_of(make_fattree04()));
  // Cross-pod edge-router pairs have 4 distinct paths each.
  EXPECT_GT(metric.average, 1.0);
}

TEST(Metrics, RouteAnonymityGrowsWithKh) {
  const auto configs = make_fattree04();
  ConfMaskOptions options;
  options.seed = 53;
  options.k_h = 2;
  const auto kh2 = run_confmask(configs, options);
  options.k_h = 6;
  const auto kh6 = run_confmask(configs, options);
  const DataPlane kh2_dp = simulated_data_plane(kh2.anonymized);
  const DataPlane kh6_dp = simulated_data_plane(kh6.anonymized);
  EXPECT_GE(min_route_companions(kh6_dp), min_route_companions(kh2_dp));
  EXPECT_GE(route_anonymity_nr(kh6_dp).average,
            route_anonymity_nr(kh2_dp).average);
}

TEST(Metrics, MinRouteCompanions) {
  EXPECT_GE(min_route_companions(dp_of(make_figure2())), 1);
  EXPECT_EQ(min_route_companions(DataPlane{}), 0);
}

TEST(Metrics, TopologyMetricsMatchGraphModule) {
  const auto configs = make_fattree04();
  // FatTree04 with hosts excluded: 8 edge routers of degree 2, 8 aggs of
  // degree 4, 4 cores of degree 4 -> min class 8.
  EXPECT_EQ(topology_min_degree_class(configs), 8);
  // Fat trees have zero triangles.
  EXPECT_DOUBLE_EQ(topology_clustering(configs), 0.0);
}

TEST(Metrics, TwoLevelEqualsFlatForSingleDomain) {
  const auto configs = make_bics();
  EXPECT_EQ(topology_min_degree_class_two_level(configs),
            topology_min_degree_class(configs));
}

TEST(Metrics, TwoLevelUsesPerAsDegrees) {
  const auto configs = make_backbone();
  // Per-AS rings are regular: AS x/y are 4-cycles (class 4), AS z is a
  // 3-chain (degrees 1,2,1 -> min class 1), AS triangle-graph is regular.
  EXPECT_EQ(topology_min_degree_class_two_level(configs), 1);
}

TEST(Metrics, ConfigUtility) {
  LineStats original;
  original.other = 900;
  LineStats anonymized = original;
  anonymized.filter = 100;
  EXPECT_DOUBLE_EQ(config_utility(original, anonymized), 0.9);
  EXPECT_DOUBLE_EQ(config_utility(original, original), 1.0);
  EXPECT_DOUBLE_EQ(config_utility(LineStats{}, LineStats{}), 1.0);
}

TEST(Metrics, ExactlyKeptFraction) {
  DataPlane original;
  original.flows[{"a", "b"}] = {{"a", "r1", "b"}};
  original.flows[{"b", "a"}] = {{"b", "r1", "a"}};
  DataPlane anonymized = original;
  EXPECT_DOUBLE_EQ(DataPlane::exactly_kept_fraction(original, anonymized),
                   1.0);
  anonymized.flows[{"a", "b"}] = {{"a", "r2", "b"}};
  EXPECT_DOUBLE_EQ(DataPlane::exactly_kept_fraction(original, anonymized),
                   0.5);
  anonymized.flows.erase({"b", "a"});
  EXPECT_DOUBLE_EQ(DataPlane::exactly_kept_fraction(original, anonymized),
                   0.0);
  EXPECT_DOUBLE_EQ(DataPlane::exactly_kept_fraction(DataPlane{}, anonymized),
                   1.0);
}

TEST(Metrics, RestrictedToFiltersFakeFlows) {
  DataPlane dp;
  dp.flows[{"a", "b"}] = {{"a", "r1", "b"}};
  dp.flows[{"a", "b_1"}] = {{"a", "r1", "b_1"}};
  const auto restricted = dp.restricted_to({"a", "b"});
  EXPECT_EQ(restricted.flows.size(), 1u);
  EXPECT_EQ(restricted.path_count(), 1u);
}

}  // namespace
}  // namespace confmask
