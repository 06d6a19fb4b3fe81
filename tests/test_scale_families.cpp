// netgen scale families: determinism, connectivity, and shape at the
// sizes BENCH_scale.json sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/config/emit.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/flat_topology.hpp"
#include "src/routing/topology.hpp"

namespace confmask {
namespace {

constexpr ScaleFamily kAllFamilies[] = {
    ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
    ScaleFamily::kPreferentialAttachment};

TEST(ScaleFamilies, DefaultHostCountClamps) {
  EXPECT_EQ(default_scale_hosts(100), 8);     // floor
  EXPECT_EQ(default_scale_hosts(1000), 40);   // linear middle
  EXPECT_EQ(default_scale_hosts(10000), 400); // cap
}

TEST(ScaleFamilies, GenerationIsDeterministic) {
  for (const ScaleFamily family : kAllFamilies) {
    const ConfigSet first = make_scale_network(family, 150, 42);
    const ConfigSet second = make_scale_network(family, 150, 42);
    ASSERT_EQ(first.routers.size(), second.routers.size());
    ASSERT_EQ(first.hosts.size(), second.hosts.size());
    for (std::size_t i = 0; i < first.routers.size(); ++i) {
      ASSERT_EQ(emit_router(first.routers[i]), emit_router(second.routers[i]))
          << scale_family_name(family) << " router " << i;
    }
    for (std::size_t i = 0; i < first.hosts.size(); ++i) {
      ASSERT_EQ(emit_host(first.hosts[i]), emit_host(second.hosts[i]))
          << scale_family_name(family) << " host " << i;
    }
  }
}

TEST(ScaleFamilies, RouterGraphIsConnectedAcrossSizes) {
  for (const ScaleFamily family : kAllFamilies) {
    for (const int routers : {100, 316}) {
      const ConfigSet configs = make_scale_network(family, routers, 5);
      EXPECT_EQ(static_cast<int>(configs.routers.size()), routers)
          << scale_family_name(family);
      EXPECT_EQ(static_cast<int>(configs.hosts.size()),
                default_scale_hosts(routers))
          << scale_family_name(family);
      const Topology topo = Topology::build(configs);
      EXPECT_TRUE(topo.router_graph().connected())
          << scale_family_name(family) << " at " << routers;
      for (const int host : topo.host_ids()) {
        EXPECT_GE(topo.gateway_of(host), 0)
            << scale_family_name(family) << " host "
            << topo.node(host).name;
      }
    }
  }
}

// Mean router degree should track 2 * (1 + extra_link_factor) and stay
// flat across the sweep — the property that makes the scale curves
// comparable between sizes.
TEST(ScaleFamilies, MeanDegreeIsScaleInvariant) {
  WaxmanOptions options;
  options.hosts = 0;
  double previous = 0.0;
  for (const int routers : {200, 800}) {
    options.routers = routers;
    const ConfigSet configs = make_waxman_network(options, 9);
    const Topology topo = Topology::build(configs);
    const double mean = 2.0 * static_cast<double>(topo.router_link_count()) /
                        static_cast<double>(routers);
    EXPECT_GT(mean, 2.5);
    EXPECT_LT(mean, 5.0);
    if (previous > 0.0) {
      EXPECT_NEAR(mean, previous, 1.0);
    }
    previous = mean;
  }
}

// The BA family must actually be hub-heavy: mean degree pinned near 2m by
// construction, while the max degree grows far past it — the shape Waxman
// never produces and the one that stresses k-degree anonymization cost.
TEST(ScaleFamilies, PreferentialAttachmentGrowsHubs) {
  PreferentialAttachmentOptions options;
  options.routers = 800;
  options.hosts = 0;
  const ConfigSet configs = make_preferential_attachment_network(options, 7);
  const Topology topo = Topology::build(configs);
  ASSERT_TRUE(topo.router_graph().connected());
  const std::vector<int> degrees = topo.router_graph().degrees();
  int max_degree = 0;
  long total = 0;
  for (const int d : degrees) {
    max_degree = std::max(max_degree, d);
    total += d;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(degrees.size());
  EXPECT_GT(mean, 3.0);  // ~2m with m=2, minus the clique constant
  EXPECT_LT(mean, 5.0);
  // A uniform-attachment graph of this size tops out around mean + a few;
  // preferential attachment reliably produces an order-of-magnitude hub.
  EXPECT_GE(max_degree, static_cast<int>(5.0 * mean));
}

TEST(ScaleFamilies, MultiAsBuildsSessionsAndScalesAsCount) {
  const ConfigSet small = make_scale_network(ScaleFamily::kMultiAs, 100, 1);
  const Topology small_topo = Topology::build(small);
  const FlatTopology small_flat = FlatTopology::build(small_topo, small);
  EXPECT_EQ(small_flat.as_count(), 2);  // clamp floor
  EXPECT_FALSE(small_flat.sessions().empty());

  const ConfigSet big = make_scale_network(ScaleFamily::kMultiAs, 1000, 1);
  const Topology big_topo = Topology::build(big);
  const FlatTopology big_flat = FlatTopology::build(big_topo, big);
  EXPECT_EQ(big_flat.as_count(), 4);  // 1000 / 250
  // Border rows cost O(R) memory each; the family must keep them scarce.
  EXPECT_LE(static_cast<int>(big_flat.border_routers().size()), 32);
}

}  // namespace
}  // namespace confmask
