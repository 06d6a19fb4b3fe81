// Degenerate and hostile inputs the simulator (and the pipeline driving
// it) must handle gracefully — shared configurations come from strangers.
#include <gtest/gtest.h>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

TEST(SimulationEdgeCases, EmptyConfigSet) {
  const ConfigSet empty;
  const Simulation sim(empty);
  EXPECT_EQ(sim.topology().node_count(), 0);
  EXPECT_TRUE(sim.extract_data_plane().flows.empty());
}

TEST(SimulationEdgeCases, HostWithoutGatewayRouter) {
  ConfigSet configs;
  HostConfig orphan;
  orphan.hostname = "h1";
  orphan.address = *Ipv4Address::parse("10.128.0.10");
  orphan.prefix_length = 24;
  orphan.gateway = *Ipv4Address::parse("10.128.0.1");  // nobody owns this
  configs.hosts.push_back(orphan);

  const Simulation sim(configs);
  EXPECT_EQ(sim.topology().gateway_of(sim.topology().find_node("h1")), -1);
  EXPECT_TRUE(sim.extract_data_plane().flows.empty());
}

TEST(SimulationEdgeCases, RouterWithoutProtocolsForwardsNothing) {
  NetworkBuilder builder;
  builder.router("r1");
  builder.router("r2");
  builder.enable_ospf("r1");  // r2 runs nothing
  builder.link("r1", "r2");
  builder.host("h1", "r1");
  builder.host("h2", "r2");
  const auto configs = builder.take();

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  // h2's LAN is not advertised anywhere: only direct delivery at r2
  // exists, transit flows black-hole.
  EXPECT_TRUE(sim.paths(topo.find_node("h1"), topo.find_node("h2")).empty());
  EXPECT_TRUE(sim.reaches(topo.find_node("r2"), topo.find_node("h2")));
}

TEST(SimulationEdgeCases, DisconnectedIgpIslands) {
  NetworkBuilder builder;
  for (const char* name : {"a1", "a2", "b1", "b2"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("a1", "a2");
  builder.link("b1", "b2");  // second island, no bridge
  builder.host("ha", "a1");
  builder.host("hb", "b1");
  const auto configs = builder.take();

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  EXPECT_TRUE(sim.paths(topo.find_node("ha"), topo.find_node("hb")).empty());
  EXPECT_FALSE(
      sim.paths(topo.find_node("ha"), topo.find_node("ha")).size());
  EXPECT_LT(sim.igp_distances(topo.find_node("a1"), {topo.find_node("b1")})[0],
            0);
}

TEST(SimulationEdgeCases, MultiAccessSegmentFormsClique) {
  // Three routers sharing one /24 segment: pairwise links, full mesh.
  ConfigSet configs;
  for (int i = 1; i <= 3; ++i) {
    RouterConfig router;
    router.hostname = "r" + std::to_string(i);
    InterfaceConfig iface;
    iface.name = "Ethernet0";
    iface.address = Ipv4Address{10, 9, 9, static_cast<std::uint8_t>(i)};
    iface.prefix_length = 24;
    router.interfaces.push_back(iface);
    router.ospf = OspfConfig{};
    router.ospf->networks.push_back(
        OspfNetwork{*Ipv4Prefix::parse("10.9.9.0/24"), 0});
    configs.routers.push_back(router);
  }
  const auto topo = Topology::build(configs);
  EXPECT_EQ(topo.router_link_count(), 3u);
  EXPECT_TRUE(topo.router_graph().connected());
}

TEST(SimulationEdgeCases, EcmpFanoutIsCappedNotUnbounded) {
  // A ladder of parallel stages: path count doubles per stage; the
  // walker's cap must bound enumeration without hanging.
  NetworkBuilder builder;
  builder.router("s0");
  builder.enable_ospf("s0");
  std::string prev = "s0";
  for (int stage = 0; stage < 10; ++stage) {
    std::string up = "u";
    up += std::to_string(stage);
    std::string down = "d";
    down += std::to_string(stage);
    std::string next = "s";
    next += std::to_string(stage + 1);
    for (const auto& name : {up, down, next}) {
      builder.router(name);
      builder.enable_ospf(name);
    }
    builder.link(prev, up);
    builder.link(prev, down);
    builder.link(up, next);
    builder.link(down, next);
    prev = next;
  }
  builder.host("hs", "s0");
  builder.host("hd", prev);
  const auto configs = builder.take();

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  const auto paths = sim.paths(topo.find_node("hs"), topo.find_node("hd"));
  EXPECT_GT(paths.size(), 0u);
  EXPECT_LE(paths.size(), 256u);  // 2^10 = 1024 potential paths, capped
}

TEST(SimulationEdgeCases, ConfMaskRefusesNothingButReportsNonEquivalence) {
  // A network that is all black holes (no protocols anywhere): the
  // pipeline completes and reports honestly.
  ConfigSet configs;
  RouterConfig r1;
  r1.hostname = "r1";
  InterfaceConfig iface;
  iface.name = "Ethernet0";
  iface.address = *Ipv4Address::parse("10.128.0.1");
  iface.prefix_length = 24;
  r1.interfaces.push_back(iface);
  configs.routers.push_back(r1);
  HostConfig h1;
  h1.hostname = "h1";
  h1.address = *Ipv4Address::parse("10.128.0.10");
  h1.prefix_length = 24;
  h1.gateway = *Ipv4Address::parse("10.128.0.1");
  configs.hosts.push_back(h1);

  ConfMaskOptions options;
  options.k_r = 2;
  const auto result = run_confmask(configs, options);
  // One router, one host, no protocols: the (empty) data plane is
  // trivially preserved.
  EXPECT_TRUE(result.equivalence_converged);
  EXPECT_TRUE(result.functionally_equivalent);
  EXPECT_TRUE(simulated_data_plane(configs).flows.empty());
}

TEST(SimulationEdgeCases, SelfFlowIsEmpty) {
  const auto configs = make_figure2();
  const Simulation sim(configs);
  const int h1 = sim.topology().find_node("h1");
  EXPECT_TRUE(sim.paths(h1, h1).empty());
}

}  // namespace
}  // namespace confmask
