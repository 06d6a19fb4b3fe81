#include "src/nethide/nethide.hpp"

#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

TEST(NetHide, ObfuscatedTopologyIsDegreeAnonymous) {
  const auto configs = make_bics();
  NetHideOptions options;
  options.k_r = 6;
  const auto result = run_nethide(configs, options);
  EXPECT_GT(result.fake_links, 0u);
  EXPECT_GE(topology_min_degree_class(result.obfuscated), 6);
}

TEST(NetHide, KeepsAllNodesAndReachability) {
  const auto configs = make_bics();
  const auto result = run_nethide(configs, {});
  EXPECT_EQ(result.obfuscated.routers.size(), configs.routers.size());
  EXPECT_EQ(result.obfuscated.hosts.size(), configs.hosts.size());

  // Reachability survives (paths change, delivery does not).
  const Simulation sim(result.obfuscated);
  const auto& topo = sim.topology();
  for (int src : topo.host_ids()) {
    for (int dst : topo.host_ids()) {
      if (src == dst) continue;
      EXPECT_FALSE(sim.paths(src, dst).empty());
    }
  }
}

TEST(NetHide, DoesNotPreservePathsExactly) {
  // The Fig 8 signature: NetHide keeps only a fraction of host-to-host
  // paths exactly, ConfMask keeps all of them.
  const auto configs = make_bics();
  const auto original_dp = [&] {
    const Simulation sim(configs);
    return sim.extract_data_plane();
  }();

  const auto nethide = run_nethide(configs, {});
  const double nethide_kept =
      DataPlane::exactly_kept_fraction(original_dp, nethide.data_plane);
  EXPECT_LT(nethide_kept, 1.0);

  ConfMaskOptions options;
  const auto confmask = run_confmask(configs, options);
  const double confmask_kept = DataPlane::exactly_kept_fraction(
      original_dp, simulated_data_plane(confmask.anonymized));
  EXPECT_DOUBLE_EQ(confmask_kept, 1.0);
  EXPECT_LT(nethide_kept, confmask_kept);
}

TEST(NetHide, DeterministicUnderSeed) {
  const auto configs = make_fattree04();
  NetHideOptions options;
  options.k_r = 10;
  options.seed = 5;
  const auto a = run_nethide(configs, options);
  const auto b = run_nethide(configs, options);
  EXPECT_EQ(a.fake_links, b.fake_links);
  EXPECT_EQ(a.data_plane, b.data_plane);
}

TEST(NetHide, FakeLinksHaveDefaultCost) {
  const auto configs = make_fattree04();
  NetHideOptions options;
  options.k_r = 10;
  const auto result = run_nethide(configs, options);
  const Ipv4Prefix original_space{Ipv4Address{10, 0, 0, 0}, 8};
  bool saw_fake = false;
  for (const auto& router : result.obfuscated.routers) {
    for (const auto& iface : router.interfaces) {
      if (!iface.address || original_space.contains(*iface.address)) continue;
      saw_fake = true;
      EXPECT_FALSE(iface.ospf_cost.has_value());
    }
  }
  EXPECT_TRUE(saw_fake);
}

}  // namespace
}  // namespace confmask
