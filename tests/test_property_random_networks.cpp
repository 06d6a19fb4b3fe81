// Randomized property testing: the pipeline's guarantees must hold on
// arbitrary networks, not just the eight curated evaluation sets. Each
// case generates a random topology (seeded — failures are reproducible
// from the parameter listing), runs the full pipeline and asserts the
// paper's three core properties: functional equivalence, k-degree
// anonymity, and k-route anonymity.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/core/utility_properties.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"

namespace confmask {
namespace {

int achievable_k(const ConfigSet& configs, int k_r) {
  std::map<int, int> as_sizes;
  for (const auto& router : configs.routers) {
    ++as_sizes[router.bgp ? router.bgp->local_as : -1];
  }
  int k = k_r;
  for (const auto& [as_number, size] : as_sizes) k = std::min(k, size);
  if (as_sizes.size() > 1) k = std::min(k, static_cast<int>(as_sizes.size()));
  return k;
}

void assert_pipeline_properties(const ConfigSet& original,
                                const ConfMaskOptions& options,
                                const std::string& label) {
  const auto result = run_confmask(original, options);
  ASSERT_TRUE(result.equivalence_converged) << label;
  EXPECT_TRUE(result.functionally_equivalent) << label;
  const DataPlane anonymized_dp = simulated_data_plane(result.anonymized);
  EXPECT_TRUE(
      check_utility_properties(simulated_data_plane(original), anonymized_dp)
          .all())
      << label;
  EXPECT_GE(topology_min_degree_class_two_level(result.anonymized),
            achievable_k(original, options.k_r))
      << label;
  EXPECT_GE(min_route_companions(anonymized_dp), options.k_h) << label;
}

struct RandomCase {
  int routers;
  int hosts;
  int extra_links;  // beyond the spanning tree
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<RandomCase>& info) {
  std::ostringstream out;
  out << "r" << info.param.routers << "_h" << info.param.hosts << "_e"
      << info.param.extra_links << "_s" << info.param.seed;
  return out.str();
}

class RandomOspf : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomOspf, PipelinePropertiesHold) {
  const auto& param = GetParam();
  const auto configs =
      make_isp_ospf("t", param.routers, param.hosts,
                    param.routers - 1 + param.extra_links, param.seed);
  ConfMaskOptions options;
  options.k_r = 4;
  options.k_h = 2;
  options.seed = param.seed * 31 + 7;
  assert_pipeline_properties(configs, options, case_name({param, 0}));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomOspf,
    ::testing::Values(RandomCase{6, 4, 2, 1}, RandomCase{10, 6, 5, 2},
                      RandomCase{14, 8, 9, 3}, RandomCase{20, 10, 14, 4},
                      RandomCase{27, 12, 20, 5}, RandomCase{33, 15, 11, 6},
                      RandomCase{12, 20, 8, 7}, RandomCase{40, 10, 30, 8}),
    case_name);

class RandomRip : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomRip, PipelinePropertiesHold) {
  const auto& param = GetParam();
  const auto configs =
      make_isp_rip("t", param.routers, param.hosts,
                   param.routers - 1 + param.extra_links, param.seed);
  ConfMaskOptions options;
  options.k_r = 4;
  options.k_h = 2;
  options.seed = param.seed * 17 + 3;
  assert_pipeline_properties(configs, options, case_name({param, 0}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomRip,
                         ::testing::Values(RandomCase{6, 4, 2, 11},
                                           RandomCase{12, 8, 6, 12},
                                           RandomCase{18, 10, 12, 13},
                                           RandomCase{25, 12, 9, 14}),
                         case_name);

/// Random multi-AS BGP+OSPF networks: ring per AS, random eBGP mesh.
ConfigSet random_bgp_network(int as_count, int routers_per_as,
                             std::uint64_t seed) {
  Rng rng(seed);
  NetworkBuilder builder;
  std::vector<std::vector<std::string>> members(
      static_cast<std::size_t>(as_count));
  for (int a = 0; a < as_count; ++a) {
    for (int i = 0; i < routers_per_as; ++i) {
      std::string name = "a";
      name += std::to_string(a);
      name += 'r';
      name += std::to_string(i);
      builder.router(name);
      builder.enable_ospf(name);
      builder.enable_bgp(name, 65000 + a);
      members[static_cast<std::size_t>(a)].push_back(name);
    }
    for (int i = 0; i < routers_per_as; ++i) {
      builder.link(members[static_cast<std::size_t>(a)][
                       static_cast<std::size_t>(i)],
                   members[static_cast<std::size_t>(a)][static_cast<
                       std::size_t>((i + 1) % routers_per_as)]);
    }
    std::string host = "h";
    host += std::to_string(a);
    builder.host(host, rng.pick(members[static_cast<std::size_t>(a)]));
  }
  // AS-level ring (connected) plus one random chord when possible.
  for (int a = 0; a < as_count; ++a) {
    const int b = (a + 1) % as_count;
    builder.ebgp_link(rng.pick(members[static_cast<std::size_t>(a)]),
                      rng.pick(members[static_cast<std::size_t>(b)]));
  }
  if (as_count > 3) {
    builder.ebgp_link(rng.pick(members[0]),
                      rng.pick(members[static_cast<std::size_t>(
                          as_count / 2)]));
  }
  return builder.take();
}

class RandomBgp
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(RandomBgp, PipelinePropertiesHold) {
  const auto [as_count, routers_per_as, seed] = GetParam();
  const auto configs = random_bgp_network(as_count, routers_per_as, seed);
  ConfMaskOptions options;
  options.k_r = 3;
  options.k_h = 2;
  options.seed = seed + 1000;
  std::ostringstream label;
  label << "as" << as_count << "_r" << routers_per_as << "_s" << seed;
  assert_pipeline_properties(configs, options, label.str());
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomBgp,
                         ::testing::Combine(::testing::Values(3, 4, 5),
                                            ::testing::Values(3, 5),
                                            ::testing::Values(21u, 22u)));

TEST(RandomNetworks, NodeAdditionPropertyHoldsOnRandomTopologies) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const auto configs = make_isp_ospf("t", 15, 8, 22, seed);
    ConfMaskOptions options;
    options.k_r = 4;
    options.fake_routers = 3;
    options.seed = seed;
    const auto result = run_confmask(configs, options);
    EXPECT_TRUE(result.functionally_equivalent) << seed;
    EXPECT_EQ(result.anonymized.routers.size(), 18u);
  }
}

}  // namespace
}  // namespace confmask
