// Step 1 in isolation: fake links must make the (two-level) router graph
// k-degree anonymous while looking exactly like real links in the
// configurations.
#include "src/core/topology_anonymization.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/metrics.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/rng.hpp"

namespace confmask {
namespace {

struct Stage1 {
  ConfigSet configs;
  TopologyAnonymizationOutcome outcome;
};

Stage1 run_stage1(const ConfigSet& original, int k_r,
                  FakeLinkCostPolicy policy = FakeLinkCostPolicy::kMinCost,
                  std::uint64_t seed = 11) {
  Stage1 stage;
  stage.configs = original;
  const Simulation sim(original);
  PrefixAllocator allocator;
  for (const auto& prefix : original.used_prefixes()) {
    allocator.reserve(prefix);
  }
  Rng rng(seed);
  stage.outcome =
      anonymize_topology(stage.configs, &sim, k_r, policy, rng, allocator);
  return stage;
}

TEST(TopologyAnonymization, BicsBecomesKDegreeAnonymous) {
  const auto original = make_bics();
  for (int k_r : {2, 6, 10}) {
    const auto stage = run_stage1(original, k_r);
    EXPECT_GE(topology_min_degree_class(stage.configs), k_r) << "k=" << k_r;
  }
}

TEST(TopologyAnonymization, OriginalLinksAreKept) {
  const auto original = make_fattree04();
  const auto stage = run_stage1(original, 6);
  const auto before = Topology::build(original);
  const auto after = Topology::build(stage.configs);
  const auto graph_after = after.router_graph();
  for (const auto& link : before.links()) {
    if (!before.is_router(link.a.node) || !before.is_router(link.b.node)) {
      continue;
    }
    const int a = after.find_node(before.node(link.a.node).name);
    const int b = after.find_node(before.node(link.b.node).name);
    EXPECT_TRUE(graph_after.has_edge(a, b));
  }
}

TEST(TopologyAnonymization, FakeLinksLookLikeRealOnes) {
  const auto original = make_bics();
  const auto stage = run_stage1(original, 6);
  ASSERT_FALSE(stage.outcome.intra_as_links.empty());
  const auto& [name_a, name_b] = stage.outcome.intra_as_links.front();
  const auto* ra = stage.configs.find_router(name_a);
  const auto* rb = stage.configs.find_router(name_b);
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);

  // Locate the fake interface pair: outside the original 10/8 space with
  // a description naming the fake peer.
  const Ipv4Prefix original_space{Ipv4Address{10, 0, 0, 0}, 8};
  const InterfaceConfig* ia = nullptr;
  for (const auto& iface : ra->interfaces) {
    if (iface.address && !original_space.contains(*iface.address) &&
        iface.description == "to-" + name_b) {
      ia = &iface;
    }
  }
  ASSERT_NE(ia, nullptr);
  EXPECT_EQ(ia->prefix_length, 31);
  // Covered by OSPF network statements, like every real link.
  EXPECT_TRUE(ra->ospf->covers(*ia->address));
  // Interface boilerplate is mimicked from real interfaces.
  EXPECT_EQ(ia->extra_lines, ra->interfaces.front().extra_lines);
  const auto* ib = rb->interface_towards(*ia->address);
  ASSERT_NE(ib, nullptr);
  EXPECT_TRUE(rb->ospf->covers(*ib->address));
}

/// The `ip ospf cost` of `router`'s fake interface towards `peer`: the one
/// outside the original 10/8 space described as pointing at the peer.
std::optional<int> fake_cost_towards(const ConfigSet& configs,
                                     const std::string& router,
                                     const std::string& peer) {
  const Ipv4Prefix original_space{Ipv4Address{10, 0, 0, 0}, 8};
  for (const auto& iface : configs.find_router(router)->interfaces) {
    if (!iface.address || original_space.contains(*iface.address)) continue;
    if (iface.description == "to-" + peer) return iface.ospf_cost;
  }
  ADD_FAILURE() << "no fake interface " << router << " -> " << peer;
  return std::nullopt;
}

/// One router's full IGP distance row (-1: unreachable), by a heap-free
/// O(R²) Dijkstra over the same half-edges: the reference the early-exit
/// search must match.
std::vector<long> full_igp_row(const Simulation& sim, int from) {
  const FlatTopology& flat = sim.flat();
  const int n = sim.topology().router_count();
  constexpr long kUnset = -1;
  std::vector<long> dist(static_cast<std::size_t>(n), kUnset);
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  dist[static_cast<std::size_t>(from)] = 0;
  for (;;) {
    int u = -1;
    for (int v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (done[i] != 0 || dist[i] == kUnset) continue;
      if (u < 0 || dist[i] < dist[static_cast<std::size_t>(u)]) u = v;
    }
    if (u < 0) return dist;
    done[static_cast<std::size_t>(u)] = 1;
    for (std::int32_t e = flat.first_out(u); e < flat.last_out(u); ++e) {
      const std::uint8_t flags = flat.edge_flags(e);
      const std::int32_t w = flat.edge_target(e);
      if ((flags & FlatTopology::kIgp) == 0 || w >= n) continue;
      const long cost =
          (flags & FlatTopology::kOspf) != 0 ? flat.edge_cost_out(e) : 1;
      const long through = dist[static_cast<std::size_t>(u)] + cost;
      long& best = dist[static_cast<std::size_t>(w)];
      if (best == kUnset || through < best) best = through;
    }
  }
}

// Step 1 prices each fake-link side with igp_distances, which stops once a
// source's targets are settled. Every answer must be the full row's,
// including unreachable inter-AS pairs, repeated targets and the source
// itself, and a near target must settle less than the whole graph.
TEST(TopologyAnonymization, PairwiseDistancesEqualFullRows) {
  const ScaleFamily families[] = {
      ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
      ScaleFamily::kPreferentialAttachment};
  for (const ScaleFamily family : families) {
    const ConfigSet configs = make_scale_network(family, 316, 1);
    const Simulation sim(configs);
    const int n = sim.topology().router_count();
    Rng rng(7);
    int unreachable = 0;
    bool settled_early = false;
    for (int source = 0; source < n; source += n / 12) {
      const std::vector<long> row = full_igp_row(sim, source);
      std::vector<int> targets{source};
      for (int i = 0; i < 6; ++i) {
        targets.push_back(static_cast<int>(rng.below(
            static_cast<std::uint64_t>(n))));
      }
      targets.push_back(targets[1]);  // a repeat
      std::uint64_t settled = 0;
      const std::vector<long> got =
          sim.igp_distances(source, targets, &settled);
      ASSERT_EQ(got.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(got[i], row[static_cast<std::size_t>(targets[i])])
            << scale_family_name(family) << " " << source << " -> "
            << targets[i];
        if (got[i] < 0) ++unreachable;
      }
      EXPECT_EQ(got.front(), 0);
      // The nearest neighbour alone settles a fraction of the graph.
      const std::int32_t first = sim.flat().first_out(source);
      if (first < sim.flat().last_out(source) &&
          sim.flat().edge_target(first) < n) {
        std::uint64_t near_settled = 0;
        (void)sim.igp_distances(source, {sim.flat().edge_target(first)},
                                &near_settled);
        settled_early = settled_early || near_settled < settled ||
                        near_settled < static_cast<std::uint64_t>(n);
      }
    }
    EXPECT_TRUE(settled_early) << scale_family_name(family);
    if (family == ScaleFamily::kMultiAs) {
      EXPECT_GT(unreachable, 0) << "no inter-AS pair was drawn";
    }
  }
}

TEST(TopologyAnonymization, MinCostPolicySetsOriginalDistance) {
  const auto original = make_bics();
  const Simulation sim(original);
  const Topology& topo = sim.topology();
  const auto stage = run_stage1(original, 6, FakeLinkCostPolicy::kMinCost);
  for (const auto& [name_a, name_b] : stage.outcome.intra_as_links) {
    const int a = topo.find_node(name_a);
    const int b = topo.find_node(name_b);
    EXPECT_EQ(fake_cost_towards(stage.configs, name_a, name_b),
              static_cast<int>(sim.igp_distances(a, {b})[0]));
    EXPECT_EQ(fake_cost_towards(stage.configs, name_b, name_a),
              static_cast<int>(sim.igp_distances(b, {a})[0]));
  }
}

TEST(TopologyAnonymization, MinCostPricesEachSideByItsOwnDirection) {
  // Waxman links carry random per-side OSPF costs, so D(a→b) and D(b→a)
  // differ for some fake pairs. OSPF cost applies to the outgoing
  // interface: a's fake interface must cost D(a→b) and b's D(b→a), or the
  // cheaper direction's fake hop undercuts an original route.
  const auto original = make_scale_network(ScaleFamily::kWaxman, 100, 1);
  const Simulation sim(original);
  const Topology& topo = sim.topology();
  const auto stage = run_stage1(original, 6, FakeLinkCostPolicy::kMinCost);
  ASSERT_FALSE(stage.outcome.intra_as_links.empty());
  bool saw_asymmetric = false;
  for (const auto& [name_a, name_b] : stage.outcome.intra_as_links) {
    const long ab = sim.igp_distances(topo.find_node(name_a),
                                      {topo.find_node(name_b)})[0];
    const long ba = sim.igp_distances(topo.find_node(name_b),
                                      {topo.find_node(name_a)})[0];
    saw_asymmetric = saw_asymmetric || ab != ba;
    EXPECT_EQ(fake_cost_towards(stage.configs, name_a, name_b),
              static_cast<int>(ab))
        << name_a << " -> " << name_b;
    EXPECT_EQ(fake_cost_towards(stage.configs, name_b, name_a),
              static_cast<int>(ba))
        << name_b << " -> " << name_a;
  }
  // The case must contain a pair whose directions differ.
  EXPECT_TRUE(saw_asymmetric);
}

TEST(TopologyAnonymization, LargeAndDefaultCostPolicies) {
  const auto original = make_figure2();
  const auto large = run_stage1(original, 4, FakeLinkCostPolicy::kLarge);
  const Ipv4Prefix original_space{Ipv4Address{10, 0, 0, 0}, 8};
  bool saw_fake = false;
  for (const auto& router : large.configs.routers) {
    for (const auto& iface : router.interfaces) {
      if (!iface.address || original_space.contains(*iface.address)) continue;
      saw_fake = true;
      EXPECT_EQ(iface.ospf_cost, 60000);
    }
  }
  EXPECT_TRUE(saw_fake);

  const auto dflt = run_stage1(original, 4, FakeLinkCostPolicy::kDefault);
  for (const auto& router : dflt.configs.routers) {
    for (const auto& iface : router.interfaces) {
      if (!iface.address || original_space.contains(*iface.address)) continue;
      EXPECT_FALSE(iface.ospf_cost.has_value());
    }
  }
}

TEST(TopologyAnonymization, BgpNetworksGetTwoLevelAnonymity) {
  const auto original = make_enterprise();
  const auto stage = run_stage1(original, 6);
  // AS sizes are 4/3/3, so the achievable k is 3.
  EXPECT_GE(topology_min_degree_class_two_level(stage.configs), 3);
}

TEST(TopologyAnonymization, FakeInterAsLinksCarryEbgpSessions) {
  // A 4-AS line (AS graph path) forces AS-level edge additions.
  ConfigSet original = [&] {
    NetworkBuilder builder;
    for (int as = 1; as <= 4; ++as) {
      for (int i = 1; i <= 2; ++i) {
        std::string name = "r";
        name += std::to_string(as);
        name += std::to_string(i);
        builder.router(name);
        builder.enable_ospf(name);
        builder.enable_bgp(name, as);
      }
      std::string first = "r";
      first += std::to_string(as);
      std::string second = first;
      first += '1';
      second += '2';
      builder.link(first, second);
      std::string host = "h";
      host += std::to_string(as);
      builder.host(host, first);
    }
    builder.ebgp_link("r12", "r21");
    builder.ebgp_link("r22", "r31");
    builder.ebgp_link("r32", "r41");
    return builder.take();
  }();

  const auto stage = run_stage1(original, 3);
  EXPECT_FALSE(stage.outcome.inter_as_links.empty());
  for (const auto& [name_a, name_b] : stage.outcome.inter_as_links) {
    const auto* ra = stage.configs.find_router(name_a);
    const auto* rb = stage.configs.find_router(name_b);
    // Reciprocal neighbor statements over the fake link.
    const auto& ia = ra->interfaces.back();
    const auto& ib = rb->interfaces.back();
    EXPECT_NE(ra->bgp->find_neighbor(*ib.address), nullptr);
    EXPECT_NE(rb->bgp->find_neighbor(*ia.address), nullptr);
    // No IGP coverage on eBGP interfaces.
    EXPECT_FALSE(ra->ospf->covers(*ia.address));
  }
}

TEST(TopologyAnonymization, AlreadyAnonymousNetworkGetsNoFakeLinks) {
  // FatTree04 degree classes: 8 edge routers (degree 2... with hosts
  // excluded: edge=2, agg=4, core=4) — min class is 8, so k_r=6 needs
  // nothing.
  const auto original = make_fattree04();
  const auto stage = run_stage1(original, 6);
  EXPECT_EQ(stage.outcome.total_links(), 0u);
}

}  // namespace
}  // namespace confmask
