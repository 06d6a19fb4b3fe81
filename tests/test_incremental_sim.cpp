// Incremental re-simulation (SimulationDelta dirty sets): the incremental
// constructor must be bit-identical to a fresh build after any sequence of
// filter edits, reuse everything a filter cannot affect, and recompute
// distance vectors only where the protocol requires it (RIP embeds filters
// in Bellman-Ford; OSPF distances are filter-independent).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/filters.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/ipv4.hpp"

namespace confmask {
namespace {

// FIB-level equality over every (router, destination) pair — stricter than
// comparing extracted data planes (it also covers black-holed entries).
void expect_same_fibs(const Simulation& actual, const Simulation& expected) {
  const auto& topo = expected.topology();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const int host : topo.host_ids()) {
      EXPECT_EQ(actual.fib(router, host), expected.fib(router, host))
          << "router " << topo.node(router).name << " -> host "
          << topo.node(host).name;
    }
  }
  EXPECT_TRUE(actual.extract_data_plane() == expected.extract_data_plane());
}

// Denies `host`'s prefix on the first router/next-hop where a filter
// actually takes (skipping the gateway's direct delivery), recording the
// edit in `delta`. Returns false if the network offers no such spot.
bool deny_first_transit_hop(ConfigSet& configs, const Simulation& sim,
                            int host, SimulationDelta& delta) {
  const auto& topo = sim.topology();
  const Ipv4Prefix prefix =
      configs.hosts[static_cast<std::size_t>(topo.node(host).config_index)]
          .prefix();
  const auto routers = router_configs(configs, topo);
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const NextHop& hop : sim.fib(router, host)) {
      if (hop.neighbor == host) continue;
      if (add_route_filter(routers[static_cast<std::size_t>(router)], router,
                           topo.link(hop.link), prefix)) {
        delta.record(router, prefix);
        return true;
      }
    }
  }
  return false;
}

TEST(IncrementalSim, EmptyDeltaReusesEverything) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  const Simulation incremental(configs, base, SimulationDelta{});

  expect_same_fibs(incremental, base);
  const auto& stats = incremental.incremental_stats();
  EXPECT_EQ(stats.destinations_recomputed, 0);
  EXPECT_EQ(stats.destinations_reused, base.topology().host_count());
  EXPECT_EQ(stats.distance_vectors_recomputed, 0);
  EXPECT_EQ(stats.distance_vectors_reused, 0);
}

TEST(IncrementalSim, NonMatchingPrefixInvalidatesNothing) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  SimulationDelta delta;
  delta.record(0, *Ipv4Prefix::parse("203.0.113.0/24"));
  const Simulation incremental(configs, base, delta);

  expect_same_fibs(incremental, base);
  EXPECT_EQ(incremental.incremental_stats().destinations_recomputed, 0);
}

TEST(IncrementalSim, OspfFilterReusesDistanceVectors) {
  auto configs = make_figure2();
  auto base = std::make_unique<const Simulation>(configs);
  const int h4 = base->topology().find_node("h4");
  ASSERT_GE(h4, 0);

  SimulationDelta delta;
  ASSERT_TRUE(deny_first_transit_hop(configs, *base, h4, delta));
  const Simulation incremental(configs, *base, delta);
  base.reset();  // incremental results must not alias the previous build
  const Simulation fresh(configs);

  expect_same_fibs(incremental, fresh);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.destinations_recomputed, 0);
  EXPECT_GT(stats.destinations_reused, 0);  // only h4's column was dirty
  // OSPF: link-state distances are filter-independent, so even the dirty
  // destination reuses its cached distance vector.
  EXPECT_GT(stats.distance_vectors_reused, 0);
  EXPECT_EQ(stats.distance_vectors_recomputed, 0);
}

TEST(IncrementalSim, RipFilterRecomputesDistanceVectors) {
  auto configs = make_isp_rip("rip", 8, 6, 12, 0x51D);
  const Simulation base(configs);
  const auto hosts = base.topology().host_ids();
  ASSERT_FALSE(hosts.empty());

  SimulationDelta delta;
  bool edited = false;
  for (const int host : hosts) {
    if (deny_first_transit_hop(configs, base, host, delta)) {
      edited = true;
      break;
    }
  }
  ASSERT_TRUE(edited);
  const Simulation incremental(configs, base, delta);
  const Simulation fresh(configs);

  expect_same_fibs(incremental, fresh);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.destinations_recomputed, 0);
  // RIP: filters participate in the distance-vector relaxation itself.
  EXPECT_GT(stats.distance_vectors_recomputed, 0);
  EXPECT_EQ(stats.distance_vectors_reused, 0);
}

TEST(IncrementalSim, RemovalIsInvalidatedLikeAddition) {
  auto configs = make_figure2();
  const Simulation original(configs);
  const int h1 = original.topology().find_node("h1");
  ASSERT_GE(h1, 0);

  SimulationDelta delta;
  ASSERT_TRUE(deny_first_transit_hop(configs, original, h1, delta));
  const Simulation filtered(configs, original, delta);

  // Undo the edit: the delta records the same (router, prefix) again.
  const auto change = delta.changes.front();
  delta.clear();
  const auto& topo = filtered.topology();
  bool removed = false;
  RouterConfig* router =
      router_configs(configs, topo)[static_cast<std::size_t>(change.router)];
  const int link_count = static_cast<int>(topo.links().size());
  for (int link_id = 0; link_id < link_count && !removed; ++link_id) {
    removed = remove_route_filter(router, change.router, topo.link(link_id),
                                  change.prefix);
  }
  ASSERT_TRUE(removed);
  delta.record(change.router, change.prefix);

  const Simulation back(configs, filtered, delta);
  const Simulation fresh(configs);
  expect_same_fibs(back, fresh);
  // Round trip: removing the only filter restores the original routing.
  expect_same_fibs(back, original);
}

TEST(IncrementalSim, ChainedIncrementalStepsStayExact) {
  // Algorithm 1 applies filters over many iterations, each re-simulating
  // incrementally from the last — drift would compound, so chain several
  // edits and compare against a fresh build only at the end.
  auto configs = make_figure2();
  auto current = std::make_unique<const Simulation>(configs);
  const auto hosts = current->topology().host_ids();
  int edits = 0;
  for (const int host : hosts) {
    SimulationDelta delta;
    if (!deny_first_transit_hop(configs, *current, host, delta)) continue;
    current = std::make_unique<const Simulation>(configs, *current, delta);
    ++edits;
  }
  ASSERT_GT(edits, 1);
  const Simulation fresh(configs);
  expect_same_fibs(*current, fresh);
}

}  // namespace
}  // namespace confmask
