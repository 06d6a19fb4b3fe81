// The determinism contract of the parallel + incremental simulation
// engine: for every evaluation network and a fixed seed, the full pipeline
// must produce bit-identical results regardless of worker count and of
// whether incremental re-simulation is on. Parallelism and caching are
// throughput devices, never semantics devices.
#include <gtest/gtest.h>

#include <string>

#include "src/config/emit.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {
namespace {

std::string emit_all(const ConfigSet& configs) {
  std::string out;
  for (const auto& router : configs.routers) out += emit_router(router);
  for (const auto& host : configs.hosts) out += emit_host(host);
  return out;
}

/// A pipeline result plus both data planes, walked under the same worker
/// count as the run.
struct Run {
  PipelineResult result;
  DataPlane original_dp;
  DataPlane anonymized_dp;
};

Run run_with(const ConfigSet& configs, unsigned workers, bool incremental) {
  ThreadPool::configure(workers);
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 0xC0DE;
  options.incremental_simulation = incremental;
  Run run{run_confmask(configs, options), simulated_data_plane(configs), {}};
  run.anonymized_dp = simulated_data_plane(run.result.anonymized);
  return run;
}

void expect_identical(const Run& a_run, const Run& b_run,
                      const std::string& label) {
  EXPECT_TRUE(a_run.anonymized_dp == b_run.anonymized_dp) << label;
  EXPECT_TRUE(a_run.original_dp == b_run.original_dp) << label;
  const PipelineResult& a = a_run.result;
  const PipelineResult& b = b_run.result;
  EXPECT_EQ(emit_all(a.anonymized), emit_all(b.anonymized)) << label;
  EXPECT_EQ(a.functionally_equivalent, b.functionally_equivalent) << label;
  EXPECT_EQ(a.stats.equivalence_filters, b.stats.equivalence_filters)
      << label;
  EXPECT_EQ(a.stats.anonymity_filters, b.stats.anonymity_filters) << label;
  EXPECT_EQ(a.stats.anonymity_rollbacks, b.stats.anonymity_rollbacks)
      << label;
  EXPECT_EQ(a.fake_hosts, b.fake_hosts) << label;
}

class DeterminismTest : public ::testing::Test {
 protected:
  ~DeterminismTest() override {
    ThreadPool::configure(0);  // restore the default shared pool
  }
};

TEST_F(DeterminismTest, WorkerCountNeverChangesResults) {
  for (const auto& network : evaluation_networks()) {
    const auto one = run_with(network.configs, 1, true);
    const auto four = run_with(network.configs, 4, true);
    expect_identical(one, four, "network " + network.id + " jobs 1 vs 4");
    EXPECT_TRUE(one.result.functionally_equivalent) << network.id;
  }
}

TEST_F(DeterminismTest, IncrementalNeverChangesResults) {
  for (const auto& network : evaluation_networks()) {
    const auto fresh = run_with(network.configs, 1, false);
    const auto incremental = run_with(network.configs, 4, true);
    expect_identical(fresh, incremental,
                     "network " + network.id + " fresh vs incremental");
  }
  // One network per scale family: hundreds of CMF_ lists, RIP and BGP
  // destinations, and vectors carried across stages.
  for (const ScaleFamily family :
       {ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
        ScaleFamily::kPreferentialAttachment}) {
    const ConfigSet configs = make_scale_network(family, 316, 1);
    const auto fresh = run_with(configs, 1, false);
    const auto incremental = run_with(configs, 4, true);
    expect_identical(fresh, incremental,
                     std::string(scale_family_name(family)) +
                         " 316 fresh vs incremental");
  }
}

TEST_F(DeterminismTest, RepeatedRunsAreBitIdentical) {
  // Same seed, same worker count: the RNG draw order must be stable under
  // the pool (all draws happen on the orchestrating thread).
  const auto networks = evaluation_networks();
  const auto& network = networks.front();
  const auto first = run_with(network.configs, 4, true);
  const auto second = run_with(network.configs, 4, true);
  expect_identical(first, second, "repeat with jobs=4");
}

}  // namespace
}  // namespace confmask
