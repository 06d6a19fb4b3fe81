#include "src/core/topology_anonymization.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>

#include "src/core/pipeline_trace.hpp"
#include "src/graph/k_degree_anonymize.hpp"
#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {

const char* to_string(FakeLinkCostPolicy policy) {
  switch (policy) {
    case FakeLinkCostPolicy::kMinCost: return "min_cost";
    case FakeLinkCostPolicy::kDefault: return "default";
    case FakeLinkCostPolicy::kLarge: return "large";
  }
  return "unknown";
}

std::optional<FakeLinkCostPolicy> parse_cost_policy(std::string_view name) {
  for (const FakeLinkCostPolicy policy :
       {FakeLinkCostPolicy::kMinCost, FakeLinkCostPolicy::kDefault,
        FakeLinkCostPolicy::kLarge}) {
    if (name == to_string(policy)) return policy;
  }
  return std::nullopt;
}

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
  // The stage reads `network`'s topology when it lists `configs`' routers
  // in config order — always, except for a watch-mode seeded simulation
  // whose snapshot holds them in another order — and builds one otherwise.
  // Either way node ids index `configs.routers` (the vector is never
  // resized below).
  std::optional<Topology> built;
  const auto in_config_order = [&](const Topology& candidate) {
    if (candidate.router_count() !=
        static_cast<int>(configs.routers.size())) {
      return false;
    }
    for (int r = 0; r < candidate.router_count(); ++r) {
      const TopologyNode& node = candidate.node(r);
      if (node.config_index != r ||
          node.name != configs.routers[static_cast<std::size_t>(r)].hostname) {
        return false;
      }
    }
    return true;
  };
  if (network == nullptr || !in_config_order(network->topology())) {
    built.emplace(Topology::build(configs));
  }
  const Topology& topo = built ? *built : network->topology();
  const auto config_of = [&](int node) -> RouterConfig& {
    return configs.routers[static_cast<std::size_t>(
        topo.node(node).config_index)];
  };

  // Only the chosen pairs are priced, each direction by `network`: one
  // Dijkstra per source that stops once that source's targets are
  // settled, the sources of an AS fanned out over the pool before its
  // links are materialized. Names resolve through the network's own
  // topology: a watch-mode seeded simulation reuses its snapshot's node
  // ids.
  const bool priced =
      network != nullptr && policy == FakeLinkCostPolicy::kMinCost;
  const auto network_id = [&](int node) {
    return network->topology().find_node(topo.node(node).name);
  };
  std::uint64_t priced_pairs = 0;
  std::uint64_t settled_nodes = 0;
  // D(u→v) and D(v→u) for each edge of `edges` (-1: not priced).
  const auto price = [&](const std::vector<int>& members,
                         const std::vector<std::pair<int, int>>& edges) {
    std::vector<std::pair<long, long>> costs(edges.size(), {-1L, -1L});
    if (!priced) return costs;
    struct Query {
      int target = -1;
      long* cost = nullptr;
    };
    std::map<int, std::vector<Query>> by_source;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const int u = network_id(members[static_cast<std::size_t>(
          edges[i].first)]);
      const int v = network_id(members[static_cast<std::size_t>(
          edges[i].second)]);
      if (u < 0 || v < 0) continue;
      by_source[u].push_back({v, &costs[i].first});
      by_source[v].push_back({u, &costs[i].second});
      priced_pairs += 2;
    }
    std::vector<const std::pair<const int, std::vector<Query>>*> sources;
    for (const auto& entry : by_source) sources.push_back(&entry);
    std::vector<std::uint64_t> settled(sources.size(), 0);
    ThreadPool::shared().parallel_for(sources.size(), [&](std::size_t i) {
      const auto& [source, queries] = *sources[i];
      std::vector<int> targets;
      targets.reserve(queries.size());
      for (const Query& query : queries) targets.push_back(query.target);
      const std::vector<long> distances =
          network->igp_distances(source, targets, &settled[i]);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        *queries[q].cost = distances[q];
      }
    });
    for (const std::uint64_t nodes : settled) settled_nodes += nodes;
    return costs;
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
    const auto costs = price(members, result.added_edges);
    for (std::size_t i = 0; i < result.added_edges.size(); ++i) {
      const auto [u, v] = result.added_edges[i];
      const int node_u = members[static_cast<std::size_t>(u)];
      const int node_v = members[static_cast<std::size_t>(v)];
      materialize_fake_link(config_of(node_u), config_of(node_v), policy,
                            costs[i].first, costs[i].second, allocator,
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

  PipelineTrace::count("priced_pairs", priced_pairs);
  PipelineTrace::count("settled_nodes", settled_nodes);
  return outcome;
}

}  // namespace confmask
