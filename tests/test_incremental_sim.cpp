// Incremental re-simulation (SimulationDelta dirty sets): the incremental
// constructor must be bit-identical to a fresh build after any sequence of
// filter edits, reuse everything a filter cannot affect, and recompute
// distance vectors only where the protocol requires it (RIP embeds filters
// in Bellman-Ford; OSPF distances are filter-independent).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/filters.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/core/topology_anonymization.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/ipv4.hpp"
#include "src/util/prefix_allocator.hpp"

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

// Dirty matching hashes each change masked to the shorter of its own and
// the destination's length, so a change dirties exactly the destinations
// it overlaps: a covering supernet all of them, a longer prefix inside
// one LAN only that LAN.
TEST(IncrementalSim, DirtySetFollowsPrefixOverlapAtAnyLength) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  const int hosts = base.topology().host_count();
  const int h4 = base.topology().find_node("h4");
  const Ipv4Prefix& lan = base.host_prefix(h4);
  const auto recomputed = [&](const Ipv4Prefix& prefix) {
    SimulationDelta delta;
    delta.record(0, prefix);
    const Simulation incremental(configs, base, delta);
    expect_same_fibs(incremental, base);
    return incremental.incremental_stats().destinations_recomputed;
  };
  EXPECT_EQ(recomputed(Ipv4Prefix{lan.network(), 0}), hosts);
  EXPECT_EQ(recomputed(Ipv4Prefix{lan.network(), 30}), 1);
  EXPECT_EQ(recomputed(lan), 1);
  EXPECT_EQ(recomputed(Ipv4Prefix{lan.host(1), 32}), 1);
}

/// Chain r1-r2-r3-r4 under OSPF (cost 10 per hop) with a host at each end.
ConfigSet ospf_chain() {
  NetworkBuilder builder;
  for (const char* name : {"r1", "r2", "r3", "r4"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("r1", "r2");
  builder.link("r2", "r3");
  builder.link("r3", "r4");
  builder.host("h1", "r1");
  builder.host("h4", "r4");
  return builder.take();
}

// A fresh build handed an earlier simulation carries its OSPF vectors only
// when no added half-edge relaxes them: a fake r1–r4 link priced at the
// path cost (30) keeps every distance, one at the default cost (10)
// shortens both end-to-end routes. Either way the FIBs are a fresh build's.
TEST(CarriedVectors, AdoptedOnlyWhenNoAddedEdgeRelaxesThem) {
  for (const auto policy :
       {FakeLinkCostPolicy::kMinCost, FakeLinkCostPolicy::kDefault}) {
    ConfigSet configs = ospf_chain();
    const Simulation donor(configs);
    PrefixAllocator allocator;
    materialize_fake_link(*configs.find_router("r1"),
                          *configs.find_router("r4"), policy, 30, 30,
                          allocator, /*inter_as=*/false);
    const Simulation carried(configs, &donor);
    const Simulation fresh(configs);
    expect_same_fibs(carried, fresh);
    const IncrementalStats& stats = carried.incremental_stats();
    if (policy == FakeLinkCostPolicy::kMinCost) {
      EXPECT_EQ(stats.distance_vectors_reused, 2);
      EXPECT_EQ(stats.distance_vectors_recomputed, 0);
    } else {
      EXPECT_EQ(stats.distance_vectors_reused, 0);
      EXPECT_EQ(stats.distance_vectors_recomputed, 2);
    }
  }
}

// Removing a donor edge can lengthen distances, which no relaxation check
// sees, so nothing carries.
TEST(CarriedVectors, NoneCarriedWhenADonorEdgeIsGone) {
  ConfigSet configs = ospf_chain();
  const Simulation donor(configs);
  configs.find_router("r2")->interfaces.front().shutdown = true;  // r1–r2
  const Simulation carried(configs, &donor);
  expect_same_fibs(carried, Simulation(configs));
  EXPECT_EQ(carried.incremental_stats().distance_vectors_reused, 0);
}

/// Sum of counter `name` over the spans whose path is `path`.
std::uint64_t counter(const PipelineTrace& trace, const std::string& path,
                      const std::string& name) {
  for (const SpanMetrics& span : trace.metrics()) {
    if (span.path != path) continue;
    const auto it = span.counters.find(name);
    return it == span.counters.end() ? 0 : it->second;
  }
  return 0;
}

ConfMaskOptions paper_options(FakeLinkCostPolicy policy,
                              bool incremental = true) {
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 3;
  options.cost_policy = policy;
  options.incremental_simulation = incremental;
  return options;
}

// Min-cost pricing never shortens a distance (DESIGN §5), so both route
// stages carry every OSPF vector from the preprocess simulation and the
// run computes them once.
TEST(CarriedVectors, MinCostPipelineComputesEachVectorOnce) {
  const ConfigSet configs = make_scale_network(ScaleFamily::kWaxman, 316, 1);
  PipelineTrace trace;
  const PipelineResult result =
      run_confmask(configs, paper_options(FakeLinkCostPolicy::kMinCost));
  ASSERT_TRUE(result.functionally_equivalent);
  ASSERT_GT(result.stats.fake_intra_links, 0u);
  EXPECT_EQ(counter(trace, "preprocess", "vectors_computed"),
            configs.hosts.size());
  EXPECT_EQ(counter(trace, "route_equivalence/iteration", "vectors_computed"),
            0u);
  EXPECT_EQ(counter(trace, "route_anonymity", "vectors_computed"), 0u);
  EXPECT_EQ(counter(trace, "route_anonymity", "vectors_carried"),
            result.anonymized.hosts.size());
}

// Default-cost fake links undercut routes on Bics, so some vectors fail
// the relaxation check and are computed; the bundle is still exactly the
// from-scratch reference's.
TEST(CarriedVectors, DefaultCostPipelineRejectsSomeAndMatchesReference) {
  const ConfigSet configs = make_bics();
  PipelineTrace trace;
  const PipelineResult carried =
      run_confmask(configs, paper_options(FakeLinkCostPolicy::kDefault));
  EXPECT_GT(counter(trace, "route_equivalence/iteration", "vectors_computed"),
            0u);
  EXPECT_GT(counter(trace, "route_anonymity", "vectors_computed"), 0u);
  const PipelineResult reference = run_confmask(
      configs, paper_options(FakeLinkCostPolicy::kDefault, false));
  EXPECT_EQ(canonical_config_set_text(carried.anonymized),
            canonical_config_set_text(reference.anonymized));
  EXPECT_EQ(carried.functionally_equivalent,
            reference.functionally_equivalent);
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
