// OSPF semantics of the simulator: SPF path selection with per-interface
// costs, ECMP enumeration, and — critically for ConfMask — distribute-list
// filters that act at RIB-install time without changing link-state
// distances.
#include <gtest/gtest.h>

#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

Path names(std::initializer_list<const char*> nodes) {
  Path path;
  for (const char* node : nodes) path.emplace_back(node);
  return path;
}

TEST(SimulationOspf, Figure2PathsMatchThePaper) {
  const auto configs = make_figure2();
  const Simulation sim(configs);
  const auto& topo = sim.topology();

  const auto h1h4 = sim.paths(topo.find_node("h1"), topo.find_node("h4"));
  ASSERT_EQ(h1h4.size(), 1u);
  EXPECT_EQ(h1h4[0], names({"h1", "r1", "r3", "r2", "r4", "h4"}));

  const auto h1h2 = sim.paths(topo.find_node("h1"), topo.find_node("h2"));
  ASSERT_EQ(h1h2.size(), 1u);
  EXPECT_EQ(h1h2[0], names({"h1", "r1", "r3", "r2", "h2"}));

  // Reverse direction is symmetric in this network.
  const auto h4h1 = sim.paths(topo.find_node("h4"), topo.find_node("h1"));
  ASSERT_EQ(h4h1.size(), 1u);
  EXPECT_EQ(h4h1[0], names({"h4", "r4", "r2", "r3", "r1", "h1"}));
}

TEST(SimulationOspf, EcmpDiamond) {
  NetworkBuilder builder;
  for (const char* name : {"a", "l", "r", "b"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("a", "l");
  builder.link("a", "r");
  builder.link("l", "b");
  builder.link("r", "b");
  builder.host("hs", "a");
  builder.host("hd", "b");
  const auto configs = builder.take();
  const Simulation sim(configs);
  const auto& topo = sim.topology();

  const auto paths = sim.paths(topo.find_node("hs"), topo.find_node("hd"));
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], names({"hs", "a", "l", "b", "hd"}));
  EXPECT_EQ(paths[1], names({"hs", "a", "r", "b", "hd"}));

  // FIB at the fan-out router has both next hops.
  const auto& fib = sim.fib(topo.find_node("a"), topo.find_node("hd"));
  EXPECT_EQ(fib.size(), 2u);
}

TEST(SimulationOspf, AsymmetricCostsBreakEcmp) {
  NetworkBuilder builder;
  for (const char* name : {"a", "l", "r", "b"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("a", "l", 5, 5);
  builder.link("a", "r");  // default 10
  builder.link("l", "b");
  builder.link("r", "b");
  builder.host("hs", "a");
  builder.host("hd", "b");
  const auto configs = builder.take();
  const Simulation sim(configs);
  const auto& topo = sim.topology();

  const auto paths = sim.paths(topo.find_node("hs"), topo.find_node("hd"));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], names({"hs", "a", "l", "b", "hd"}));
}

TEST(SimulationOspf, InstallTimeFilterCreatesBlackHoleNotReroute) {
  // Deny h4's LAN on r1's interface towards r3 (the only shortest path).
  // OSPF distances are unaffected, so r1 does NOT fall back to the
  // higher-cost path via r2 — the route simply disappears (Cisco
  // distribute-list-in semantics, which Algorithm 1 depends on).
  auto configs = make_figure2();
  const auto& h4 = *configs.find_host("h4");
  auto* r1 = configs.find_router("r1");
  ASSERT_NE(r1, nullptr);
  // r1's interface towards r3 is the one wired second (Ethernet1).
  auto& list = r1->ensure_prefix_list("CMF_T");
  list.add_deny(h4.prefix());
  list.add_permit_all();
  r1->ospf->distribute_lists.push_back(DistributeList{"CMF_T", "Ethernet1"});

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  EXPECT_TRUE(sim.paths(topo.find_node("h1"), topo.find_node("h4")).empty());
  // Other destinations are unaffected.
  EXPECT_EQ(sim.paths(topo.find_node("h1"), topo.find_node("h2")).size(), 1u);
}

TEST(SimulationOspf, FilterOnEqualCostBranchPrunesOnlyThatBranch) {
  NetworkBuilder builder;
  for (const char* name : {"a", "l", "r", "b"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("a", "l");  // a: Ethernet0
  builder.link("a", "r");  // a: Ethernet1
  builder.link("l", "b");
  builder.link("r", "b");
  builder.host("hs", "a");
  builder.host("hd", "b");
  auto configs = builder.take();

  auto* a = configs.find_router("a");
  const auto dest = configs.find_host("hd")->prefix();
  auto& list = a->ensure_prefix_list("CMF_E1");
  list.add_deny(dest);
  list.add_permit_all();
  a->ospf->distribute_lists.push_back(DistributeList{"CMF_E1", "Ethernet1"});

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  const auto paths = sim.paths(topo.find_node("hs"), topo.find_node("hd"));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0][2], "l");  // only the left branch survives
}

TEST(SimulationOspf, FatTreeEcmpFanout) {
  const auto configs = make_fattree04();
  const Simulation sim(configs);
  const auto& topo = sim.topology();

  // Cross-pod flow: 2 aggs x 2 cores = 4 equal-cost paths.
  const auto cross = sim.paths(topo.find_node("h0-0-0"),
                               topo.find_node("h1-0-0"));
  EXPECT_EQ(cross.size(), 4u);
  for (const auto& path : cross) EXPECT_EQ(path.size(), 7u);

  // Same-edge flow: one hop through the shared edge switch.
  const auto local = sim.paths(topo.find_node("h0-0-0"),
                               topo.find_node("h0-0-1"));
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0], names({"h0-0-0", "e0-0", "h0-0-1"}));

  // Same-pod, different edge: via either agg, no core.
  const auto pod = sim.paths(topo.find_node("h0-0-0"),
                             topo.find_node("h0-1-0"));
  EXPECT_EQ(pod.size(), 2u);
  for (const auto& path : pod) EXPECT_EQ(path.size(), 5u);
}

TEST(SimulationOspf, GatewayDeliversDirectlyEvenWithFilters) {
  // Connected routes cannot be filtered away.
  auto configs = make_figure2();
  auto* r4 = configs.find_router("r4");
  const auto dest = configs.find_host("h4")->prefix();
  auto& list = r4->ensure_prefix_list("CMF_ALL");
  list.add_deny(dest);
  list.add_permit_all();
  for (const auto& iface : r4->interfaces) {
    r4->ospf->distribute_lists.push_back(DistributeList{"CMF_ALL", iface.name});
  }
  const Simulation sim(configs);
  const auto& topo = sim.topology();
  EXPECT_FALSE(
      sim.paths(topo.find_node("h1"), topo.find_node("h4")).empty());
}

TEST(SimulationOspf, ReachabilityHelpers) {
  const auto configs = make_figure2();
  const Simulation sim(configs);
  const auto& topo = sim.topology();
  const int r1 = topo.find_node("r1");
  int reachable = 0;
  for (const int host : topo.host_ids()) reachable += sim.reaches(r1, host);
  EXPECT_EQ(reachable, 3);  // h1, h2, h4
}

TEST(SimulationOspf, DataPlaneExtraction) {
  const auto configs = make_figure2();
  const Simulation sim(configs);
  const auto dp = sim.extract_data_plane();
  EXPECT_EQ(dp.flows.size(), 6u);  // 3 hosts, ordered pairs
  EXPECT_EQ(dp.path_count(), 6u);  // all single-path
  const auto it = dp.flows.find(FlowKey{"h1", "h4"});
  ASSERT_NE(it, dp.flows.end());
  EXPECT_EQ(it->second[0], names({"h1", "r1", "r3", "r2", "r4", "h4"}));
}

TEST(SimulationOspf, RunCounterCounts) {
  Simulation::reset_run_counter();
  const auto configs = make_figure2();
  { const Simulation sim1(configs); }
  { const Simulation sim2(configs); }
  EXPECT_EQ(Simulation::total_runs(), 2u);
}

}  // namespace
}  // namespace confmask
