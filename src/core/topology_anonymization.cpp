#include "src/core/topology_anonymization.hpp"

#include <algorithm>
#include <map>

#include "src/graph/k_degree_anonymize.hpp"
#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"

namespace confmask {

/// Materializes a fake router-router link in the configurations: an
/// interface pair with a description and protocol coverage, which the
/// topology layer cannot tell from a real link. Its prefix (from the
/// fake-link pool), interface numbers and cost can (ROADMAP.md item 1).
void materialize_fake_link(RouterConfig& ra, RouterConfig& rb,
                           FakeLinkCostPolicy policy, long cost_ab,
                           long cost_ba, PrefixAllocator& allocator,
                           bool inter_as) {
  const Ipv4Prefix prefix = allocator.allocate_link();

  // The `ip ospf cost` of one side's interface, which prices that side's
  // outgoing hop across the link.
  const auto cost_of = [&](long min_cost) -> std::optional<int> {
    if (inter_as) return std::nullopt;
    switch (policy) {
      case FakeLinkCostPolicy::kMinCost:
        if (min_cost > 0) return static_cast<int>(min_cost);
        return std::nullopt;
      case FakeLinkCostPolicy::kLarge:
        return 60000;
      case FakeLinkCostPolicy::kDefault:
        return std::nullopt;
    }
    return std::nullopt;
  };

  ra.add_lookalike_interface(prefix.host(0), 31, "to-" + rb.hostname)
      .ospf_cost = cost_of(cost_ab);
  rb.add_lookalike_interface(prefix.host(1), 31, "to-" + ra.hostname)
      .ospf_cost = cost_of(cost_ba);

  if (inter_as) {
    // eBGP session configuration, mirroring real inter-AS links so the
    // fake session is not trivially identifiable.
    ra.bgp->neighbors.push_back(
        BgpNeighbor{prefix.host(1), rb.bgp->local_as, {}});
    rb.bgp->neighbors.push_back(
        BgpNeighbor{prefix.host(0), ra.bgp->local_as, {}});
    return;
  }

  if (ra.ospf && rb.ospf) {
    ra.ospf->networks.push_back(OspfNetwork{prefix, 0});
    rb.ospf->networks.push_back(OspfNetwork{prefix, 0});
  } else if (ra.rip && rb.rip) {
    ra.rip->cover(prefix.network());
    rb.rip->cover(prefix.network());
  }
}

TopologyAnonymizationOutcome anonymize_topology(ConfigSet& configs,
                                                const Simulation* network,
                                                int k_r,
                                                FakeLinkCostPolicy policy,
                                                Rng& rng,
                                                PrefixAllocator& allocator) {
  TopologyAnonymizationOutcome outcome;
  const Topology topo = Topology::build(configs);
  // `topo` is built from `configs`, so its config indices are the stage's
  // node-id → RouterConfig table (the vector is never resized below).
  const auto config_of = [&](int node) -> RouterConfig& {
    return configs.routers[static_cast<std::size_t>(
        topo.node(node).config_index)];
  };

  // Only the chosen pairs are priced, each direction by one memoized IGP
  // row of `network`; an AS's missing rows are computed in one pool batch
  // before its links are materialized. Names resolve through the network's
  // own topology: a watch-mode seeded simulation reuses its snapshot's node
  // ids.
  const bool priced =
      network != nullptr && policy == FakeLinkCostPolicy::kMinCost;
  const auto network_id = [&](int node) {
    return network->topology().find_node(topo.node(node).name);
  };
  const auto min_cost_of = [&](int a, int b) {
    if (!priced) return -1L;
    const int ia = network_id(a);
    const int ib = network_id(b);
    if (ia < 0 || ib < 0) return -1L;
    return network->igp_distance(ia, ib);
  };

  // Group routers by AS (-1 == no BGP == one flat IGP domain).
  std::map<int, std::vector<int>> by_as;
  for (int r = 0; r < topo.router_count(); ++r) {
    const auto& router = config_of(r);
    by_as[router.bgp ? router.bgp->local_as : -1].push_back(r);
  }

  // Intra-AS: anonymize each AS's internal router graph independently.
  for (const auto& [as_number, members] : by_as) {
    std::map<int, int> local_of;
    for (std::size_t i = 0; i < members.size(); ++i) {
      local_of[members[i]] = static_cast<int>(i);
    }
    Graph subgraph(static_cast<int>(members.size()));
    for (const auto& link : topo.links()) {
      if (!topo.is_router(link.a.node) || !topo.is_router(link.b.node)) {
        continue;
      }
      const auto a = local_of.find(link.a.node);
      const auto b = local_of.find(link.b.node);
      if (a != local_of.end() && b != local_of.end()) {
        subgraph.add_edge(a->second, b->second);
      }
    }
    const auto result = k_degree_anonymize(subgraph, k_r, rng);
    if (priced) {
      std::vector<int> sources;
      for (const auto& [u, v] : result.added_edges) {
        for (const int local : {u, v}) {
          const int id = network_id(members[static_cast<std::size_t>(local)]);
          if (id >= 0) sources.push_back(id);
        }
      }
      network->prefetch_igp_rows(std::move(sources));
    }
    for (const auto& [u, v] : result.added_edges) {
      const int node_u = members[static_cast<std::size_t>(u)];
      const int node_v = members[static_cast<std::size_t>(v)];
      materialize_fake_link(config_of(node_u), config_of(node_v), policy,
                            min_cost_of(node_u, node_v),
                            min_cost_of(node_v, node_u), allocator,
                            /*inter_as=*/false);
      outcome.intra_as_links.emplace_back(topo.node(node_u).name,
                                          topo.node(node_v).name);
    }
  }

  // Inter-AS: anonymize the AS supergraph (BGP networks only).
  if (by_as.size() > 1 && by_as.count(-1) == 0) {
    std::vector<int> as_numbers;
    std::map<int, int> as_index;
    for (const auto& [as_number, members] : by_as) {
      as_index[as_number] = static_cast<int>(as_numbers.size());
      as_numbers.push_back(as_number);
    }
    Graph as_graph(static_cast<int>(as_numbers.size()));
    // Border routers per AS = routers with at least one inter-AS link.
    std::map<int, std::vector<std::string>> borders;
    for (const auto& link : topo.links()) {
      if (!topo.is_router(link.a.node) || !topo.is_router(link.b.node)) {
        continue;
      }
      const auto& ra = configs.routers[static_cast<std::size_t>(
          topo.node(link.a.node).config_index)];
      const auto& rb = configs.routers[static_cast<std::size_t>(
          topo.node(link.b.node).config_index)];
      if (!ra.bgp || !rb.bgp || ra.bgp->local_as == rb.bgp->local_as) {
        continue;
      }
      as_graph.add_edge(as_index[ra.bgp->local_as],
                        as_index[rb.bgp->local_as]);
      borders[ra.bgp->local_as].push_back(ra.hostname);
      borders[rb.bgp->local_as].push_back(rb.hostname);
    }
    for (auto& [as_number, names] : borders) {
      std::sort(names.begin(), names.end());
      names.erase(std::unique(names.begin(), names.end()), names.end());
    }

    const auto result = k_degree_anonymize(as_graph, k_r, rng);
    for (const auto& [u, v] : result.added_edges) {
      const int as_u = as_numbers[static_cast<std::size_t>(u)];
      const int as_v = as_numbers[static_cast<std::size_t>(v)];
      // Randomly chosen border routers on each side (paper §4.2); fall
      // back to any router of the AS if it has no border yet.
      const auto pick_border = [&](int as_number) -> std::string {
        const auto it = borders.find(as_number);
        if (it != borders.end() && !it->second.empty()) {
          return rng.pick(it->second);
        }
        const auto& members = by_as[as_number];
        return topo.node(members[static_cast<std::size_t>(
                             rng.below(members.size()))])
            .name;
      };
      const auto name_u = pick_border(as_u);
      const auto name_v = pick_border(as_v);
      materialize_fake_link(config_of(topo.find_node(name_u)),
                            config_of(topo.find_node(name_v)), policy, -1,
                            -1, allocator, /*inter_as=*/true);
      outcome.inter_as_links.emplace_back(name_u, name_v);
    }
  }

  return outcome;
}

}  // namespace confmask
