// RIP (distance-vector) semantics: hop-count metric, classful coverage,
// and filters that act at advertisement-import time — unlike OSPF, a RIP
// filter makes the router fall back to its next-best neighbor.
#include <gtest/gtest.h>

#include "src/netgen/builder.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

/// Square r1-r2-r3-r4 with hosts on r1 and r3; RIP everywhere.
ConfigSet rip_square() {
  NetworkBuilder builder;
  for (const char* name : {"r1", "r2", "r3", "r4"}) {
    builder.router(name);
    builder.enable_rip(name);
  }
  builder.link("r1", "r2");
  builder.link("r2", "r3");
  builder.link("r3", "r4");
  builder.link("r4", "r1");
  builder.host("h1", "r1");
  builder.host("h3", "r3");
  return builder.take();
}

TEST(SimulationRip, HopCountEcmp) {
  const auto configs = rip_square();
  const Simulation sim(configs);
  const auto& topo = sim.topology();
  // Two 2-hop paths around the square.
  const auto paths = sim.paths(topo.find_node("h1"), topo.find_node("h3"));
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0][2], "r2");
  EXPECT_EQ(paths[1][2], "r4");
}

TEST(SimulationRip, ImportFilterReroutesInsteadOfBlackholing) {
  // Deny h3's LAN on r1's interface towards r2: r1 only keeps the route
  // via r4. This is the distance-vector contrast to the OSPF
  // install-time-filter black-hole test.
  auto configs = rip_square();
  auto* r1 = configs.find_router("r1");
  const auto dest = configs.find_host("h3")->prefix();
  auto& list = r1->ensure_prefix_list("CMF_R");
  list.add_deny(dest);
  list.add_permit_all();
  // r1's first interface (Ethernet0) is the link to r2.
  r1->rip->distribute_lists.push_back(DistributeList{"CMF_R", "Ethernet0"});

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  const auto paths = sim.paths(topo.find_node("h1"), topo.find_node("h3"));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0][2], "r4");
}

TEST(SimulationRip, FilterPropagatesDownstream) {
  // Chain r1-r2-r3 with host on r3. Filtering h3 at r2 (import from r3)
  // removes the destination for r1 as well — r2 no longer advertises it.
  NetworkBuilder builder;
  for (const char* name : {"r1", "r2", "r3"}) {
    builder.router(name);
    builder.enable_rip(name);
  }
  builder.link("r1", "r2");
  builder.link("r2", "r3");
  builder.host("h1", "r1");
  builder.host("h3", "r3");
  auto configs = builder.take();

  auto* r2 = configs.find_router("r2");
  const auto dest = configs.find_host("h3")->prefix();
  auto& list = r2->ensure_prefix_list("CMF_R");
  list.add_deny(dest);
  list.add_permit_all();
  // r2's second interface (Ethernet1) is the link to r3.
  r2->rip->distribute_lists.push_back(DistributeList{"CMF_R", "Ethernet1"});

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  EXPECT_TRUE(sim.paths(topo.find_node("h1"), topo.find_node("h3")).empty());
  // Reverse direction unfiltered.
  EXPECT_FALSE(sim.paths(topo.find_node("h3"), topo.find_node("h1")).empty());
}

TEST(SimulationRip, LongChainConverges) {
  NetworkBuilder builder;
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.emplace_back("r");
    names.back() += std::to_string(i);
    builder.router(names.back());
    builder.enable_rip(names.back());
  }
  for (int i = 0; i + 1 < 12; ++i) builder.link(names[i], names[i + 1]);
  builder.host("ha", "r0");
  builder.host("hb", "r11");
  const auto configs = builder.take();
  const Simulation sim(configs);
  const auto& topo = sim.topology();
  const auto paths = sim.paths(topo.find_node("ha"), topo.find_node("hb"));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 14u);
}

}  // namespace
}  // namespace confmask
