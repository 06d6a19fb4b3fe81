// The determinism contract of the parallel + incremental simulation
// engine: for every evaluation network and a fixed seed, the full pipeline
// must produce bit-identical results regardless of worker count, and the
// bundles a from-scratch rebuild sequence produced. Parallelism and
// caching are throughput devices, never semantics devices.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "src/config/emit.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/util/hash.hpp"
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

ConfMaskOptions seeded_options() {
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 0xC0DE;
  return options;
}

Run run_with(const ConfigSet& configs, unsigned workers) {
  ThreadPool::configure(workers);
  Run run{run_confmask(configs, seeded_options()),
          simulated_data_plane(configs), {}};
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
    const auto one = run_with(network.configs, 1);
    const auto four = run_with(network.configs, 4);
    expect_identical(one, four, "network " + network.id + " jobs 1 vs 4");
    EXPECT_TRUE(one.result.functionally_equivalent) << network.id;
  }
}

/// Runs `configs` on four workers and expects the canonical bundle to have
/// digest `bundle` and to verify.
void expect_bundle(const ConfigSet& configs, const std::string& bundle,
                   const std::string& label) {
  ThreadPool::configure(4);
  const PipelineResult result = run_confmask(configs, seeded_options());
  EXPECT_EQ(hex64(fnv1a64(canonical_config_set_text(result.anonymized))),
            bundle)
      << label;
  EXPECT_TRUE(result.functionally_equivalent) << label;
}

// The fnv1a64 digests of the bundles a from-scratch rebuild sequence
// produced on one worker (every Algorithm 1 iteration and every Algorithm
// 2 rollback round rebuilt from the configs), all of them verified.
TEST_F(DeterminismTest, IncrementalNeverChangesResults) {
  const std::string evaluation[] = {
      "ed009641f4a191cf", "4e7c5c4478690f37", "45efc7035aacc7fe",
      "1526c74b1c3de7cd", "28eca138f9417018", "9c7815dbf9034a1c",
      "ab087478bff2909c", "15e6831506389a4b"};
  const auto networks = evaluation_networks();
  ASSERT_EQ(networks.size(), std::size(evaluation));
  for (std::size_t i = 0; i < networks.size(); ++i) {
    expect_bundle(networks[i].configs, evaluation[i],
                  "network " + networks[i].id);
  }
  // One network per scale family: hundreds of CMF_ lists, RIP and BGP
  // destinations, and vectors carried across stages.
  const std::pair<ScaleFamily, std::string> families[] = {
      {ScaleFamily::kWaxman, "6f6e782401f2bb09"},
      {ScaleFamily::kWaxmanRip, "1d59ab09168fa5f5"},
      {ScaleFamily::kMultiAs, "bcf90f871c701863"},
      {ScaleFamily::kPreferentialAttachment, "024d8e7967600967"}};
  for (const auto& [family, bundle] : families) {
    expect_bundle(make_scale_network(family, 316, 1), bundle,
                  std::string(scale_family_name(family)) + " 316");
  }
}

TEST_F(DeterminismTest, RepeatedRunsAreBitIdentical) {
  // Same seed, same worker count: the RNG draw order must be stable under
  // the pool (all draws happen on the orchestrating thread).
  const auto networks = evaluation_networks();
  const auto& network = networks.front();
  const auto first = run_with(network.configs, 4);
  const auto second = run_with(network.configs, 4);
  expect_identical(first, second, "repeat with jobs=4");
}

}  // namespace
}  // namespace confmask
