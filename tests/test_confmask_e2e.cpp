// End-to-end properties of the full ConfMask pipeline on the paper's
// evaluation networks: functional equivalence (the headline guarantee),
// k-anonymity of topology and routes, and the only-append configuration
// invariant.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "src/config/emit.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/util/strings.hpp"

namespace confmask {
namespace {

/// Multiset of non-separator configuration lines.
std::map<std::string, int> line_multiset(const std::string& text) {
  std::map<std::string, int> lines;
  for (const auto line : split(text, '\n')) {
    const auto body = trim(line);
    if (!body.empty() && body != "!") ++lines[std::string(body)];
  }
  return lines;
}

/// True if every line of `original` appears at least as often in `super`.
bool lines_contained(const std::string& original, const std::string& super) {
  const auto orig = line_multiset(original);
  const auto sup = line_multiset(super);
  for (const auto& [line, count] : orig) {
    const auto it = sup.find(line);
    if (it == sup.end() || it->second < count) return false;
  }
  return true;
}

/// The k actually achievable by per-AS anonymization: capped by the
/// smallest AS size (and AS count for the supergraph level).
int achievable_k(const ConfigSet& configs, int k_r) {
  std::map<int, int> as_sizes;
  for (const auto& router : configs.routers) {
    ++as_sizes[router.bgp ? router.bgp->local_as : -1];
  }
  int k = k_r;
  for (const auto& [as_number, size] : as_sizes) k = std::min(k, size);
  if (as_sizes.size() > 1) {
    k = std::min(k, static_cast<int>(as_sizes.size()));
  }
  return k;
}

class ConfMaskE2E : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfMaskE2E, DefaultParameters) {
  const auto networks = evaluation_networks();
  const auto& network = networks[GetParam()];
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.seed = 0xC0FFEE + GetParam();

  const auto result = run_confmask(network.configs, options);
  const DataPlane anonymized_dp = simulated_data_plane(result.anonymized);

  // The headline guarantee: route equivalence verified by simulation.
  EXPECT_TRUE(result.equivalence_converged) << network.name;
  EXPECT_TRUE(result.functionally_equivalent) << network.name;
  EXPECT_DOUBLE_EQ(
      DataPlane::exactly_kept_fraction(simulated_data_plane(network.configs),
                                       anonymized_dp),
      1.0)
      << network.name;

  // Topology anonymity (two-level for BGP networks, §4.2).
  EXPECT_GE(topology_min_degree_class_two_level(result.anonymized),
            achievable_k(network.configs, options.k_r))
      << network.name;

  // Route anonymity: k_H companions per (ingress, egress) pair.
  EXPECT_GE(min_route_companions(anonymized_dp), options.k_h)
      << network.name;
  EXPECT_EQ(result.stats.fake_hosts,
            static_cast<std::size_t>(options.k_h - 1) *
                network.configs.hosts.size());

  // Only-append invariant: every original configuration line survives.
  for (const auto& router : network.configs.routers) {
    const auto* anonymized = result.anonymized.find_router(router.hostname);
    ASSERT_NE(anonymized, nullptr);
    EXPECT_TRUE(
        lines_contained(emit_router(router), emit_router(*anonymized)))
        << network.name << " router " << router.hostname;
  }
  for (const auto& host : network.configs.hosts) {
    const auto* kept = result.anonymized.find_host(host.hostname);
    ASSERT_NE(kept, nullptr) << network.name << " host " << host.hostname;
  }

  // Line accounting is self-consistent and U_C is sane.
  const BundleLineStats lines =
      bundle_line_stats(network.configs, result.anonymized);
  EXPECT_EQ(lines.added(), lines.anonymized.total() - lines.original.total());
  const double uc = config_utility(lines.original, lines.anonymized);
  EXPECT_GT(uc, 0.0) << network.name;
  EXPECT_LT(uc, 1.0) << network.name;

  // Paper §5.4: iterations bounded by the number of fake links (+1 clean
  // verification round).
  EXPECT_LE(result.stats.equivalence_iterations,
            static_cast<int>(result.stats.fake_intra_links +
                             result.stats.fake_inter_links) +
                1)
      << network.name;
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, ConfMaskE2E,
                         ::testing::Range<std::size_t>(0, 8));

struct ParamCase {
  std::size_t network;
  int k_r;
  int k_h;
};

class ConfMaskParamSweep : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ConfMaskParamSweep, EquivalenceHoldsAcrossParameters) {
  const auto networks = evaluation_networks();
  const auto& network = networks[GetParam().network];
  ConfMaskOptions options;
  options.k_r = GetParam().k_r;
  options.k_h = GetParam().k_h;
  options.seed = 7;

  const auto result = run_confmask(network.configs, options);
  EXPECT_TRUE(result.functionally_equivalent)
      << network.name << " k_r=" << options.k_r << " k_h=" << options.k_h;
  EXPECT_GE(min_route_companions(simulated_data_plane(result.anonymized)),
            options.k_h);
  EXPECT_GE(topology_min_degree_class_two_level(result.anonymized),
            achievable_k(network.configs, options.k_r));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfMaskParamSweep,
    ::testing::Values(ParamCase{0, 2, 2}, ParamCase{0, 10, 4},
                      ParamCase{1, 10, 2}, ParamCase{2, 2, 6},
                      ParamCase{3, 2, 2}, ParamCase{4, 6, 2},
                      ParamCase{6, 10, 6}, ParamCase{6, 2, 4}),
    [](const ::testing::TestParamInfo<ParamCase>& info) {
      std::ostringstream name;
      name << "net" << info.param.network << "_kr" << info.param.k_r << "_kh"
           << info.param.k_h;
      return name.str();
    });

TEST(ConfMaskE2EDeterminism, SameSeedSameOutput) {
  const auto configs = make_enterprise();
  ConfMaskOptions options;
  options.seed = 99;
  const auto a = run_confmask(configs, options);
  const auto b = run_confmask(configs, options);
  ASSERT_EQ(a.anonymized.routers.size(), b.anonymized.routers.size());
  for (std::size_t i = 0; i < a.anonymized.routers.size(); ++i) {
    EXPECT_EQ(emit_router(a.anonymized.routers[i]),
              emit_router(b.anonymized.routers[i]));
  }
  EXPECT_EQ(simulated_data_plane(a.anonymized),
            simulated_data_plane(b.anonymized));
}

TEST(ConfMaskE2EDeterminism, DifferentSeedsDifferentFakeTopology) {
  const auto configs = make_bics();
  ConfMaskOptions options;
  options.seed = 1;
  const auto a = run_confmask(configs, options);
  options.seed = 2;
  const auto b = run_confmask(configs, options);
  bool any_different = false;
  for (std::size_t i = 0; i < a.anonymized.routers.size(); ++i) {
    if (emit_router(a.anonymized.routers[i]) !=
        emit_router(b.anonymized.routers[i])) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
  // But both are functionally equivalent to the original.
  EXPECT_TRUE(a.functionally_equivalent);
  EXPECT_TRUE(b.functionally_equivalent);
}

}  // namespace
}  // namespace confmask
