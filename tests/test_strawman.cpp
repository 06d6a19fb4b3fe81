// The §4.3 strawman baselines: both must also restore functional
// equivalence, but strawman 1 injects far more filter lines (unified
// pattern) and strawman 2 needs far more simulation jobs (Fig 10 / 16).
#include "src/core/strawman.hpp"

#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

class StrawmanEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StrawmanEquivalence, AllStrategiesRestoreTheDataPlane) {
  const auto networks = evaluation_networks();
  const auto& network = networks[GetParam()];
  ConfMaskOptions options;
  options.seed = 31;

  for (const auto strategy :
       {EquivalenceStrategy::kConfMask, EquivalenceStrategy::kStrawman1,
        EquivalenceStrategy::kStrawman2}) {
    const auto result = run_pipeline(network.configs, options, strategy);
    EXPECT_TRUE(result.functionally_equivalent)
        << network.name << " strategy " << static_cast<int>(strategy);
  }
}

// Networks A, C, D, G cover BGP small, BGP ring, ISP, and fat-tree shapes.
INSTANTIATE_TEST_SUITE_P(SmallNetworks, StrawmanEquivalence,
                         ::testing::Values(0u, 2u, 3u, 6u));

TEST(Strawman, Strawman1InjectsMoreFilterLinesThanConfMask) {
  const auto configs = make_bics();
  ConfMaskOptions options;
  options.seed = 37;
  const auto cm = run_confmask(configs, options);
  const auto s1 = run_strawman1(configs, options);
  EXPECT_GT(bundle_line_stats(configs, s1.anonymized).anonymized.filter,
            bundle_line_stats(configs, cm.anonymized).anonymized.filter);
}

TEST(Strawman, Strawman2NeedsMoreSimulationsThanConfMask) {
  const auto configs = make_bics();
  ConfMaskOptions options;
  options.seed = 41;
  const auto cm = run_confmask(configs, options);
  const auto s2 = run_strawman2(configs, options);
  EXPECT_TRUE(s2.functionally_equivalent);
  EXPECT_GT(s2.stats.equivalence_iterations,
            cm.stats.equivalence_iterations);
}

TEST(Strawman, Strawman1NeedsNoSimulationForFixing) {
  const auto configs = make_university();
  const Simulation sim(configs);
  OriginalIndex index(sim);
  PrefixAllocator allocator;
  for (const auto& p : configs.used_prefixes()) allocator.reserve(p);
  Rng rng(43);
  ConfigSet work = configs;
  (void)anonymize_topology(work, &sim, 6, FakeLinkCostPolicy::kMinCost, rng,
                           allocator);
  const auto runs_before = Simulation::total_runs();
  const auto outcome = strawman1_route_fix(work, index);
  EXPECT_EQ(Simulation::total_runs(), runs_before);
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.iterations, 0);
}

TEST(Strawman, Strawman1DeniesEveryRealHostOnEveryFakeEnd) {
  const auto configs = make_figure2();
  const Simulation sim(configs);
  OriginalIndex index(sim);
  PrefixAllocator allocator;
  for (const auto& p : configs.used_prefixes()) allocator.reserve(p);
  Rng rng(47);
  ConfigSet work = configs;
  const auto topo_outcome = anonymize_topology(
      work, &sim, 4, FakeLinkCostPolicy::kMinCost, rng, allocator);
  ASSERT_GT(topo_outcome.total_links(), 0u);
  const auto outcome = strawman1_route_fix(work, index);
  // 2 ends per fake link x 3 real hosts (the unified pattern §4.3 warns
  // about).
  EXPECT_EQ(outcome.filters_added,
            static_cast<int>(topo_outcome.total_links()) * 2 * 3);
}

}  // namespace
}  // namespace confmask
