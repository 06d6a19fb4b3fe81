#include "src/core/metrics.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <map>
#include <set>

#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"

namespace confmask {

namespace {

/// The router-only part of a path (strips the two host endpoints).
std::vector<std::string> router_sequence(const Path& path) {
  if (path.size() < 2) return {};
  return {path.begin() + 1, path.end() - 1};
}

}  // namespace

DataPlane simulated_data_plane(const ConfigSet& configs) {
  return Simulation(configs).extract_data_plane();
}

RouteAnonymityMetric route_anonymity_nr(const DataPlane& dp) {
  std::map<std::pair<std::string, std::string>,
           std::set<std::vector<std::string>>>
      by_edge_pair;
  for (const auto& [flow, paths] : dp.flows) {
    for (const auto& path : paths) {
      const auto routers = router_sequence(path);
      if (routers.empty()) continue;
      by_edge_pair[{routers.front(), routers.back()}].insert(routers);
    }
  }

  RouteAnonymityMetric metric;
  metric.pairs = by_edge_pair.size();
  if (by_edge_pair.empty()) return metric;
  std::size_t total = 0;
  std::size_t minimum = SIZE_MAX;
  for (const auto& [pair, sequences] : by_edge_pair) {
    total += sequences.size();
    minimum = std::min(minimum, sequences.size());
  }
  metric.average = static_cast<double>(total) /
                   static_cast<double>(by_edge_pair.size());
  metric.minimum = static_cast<int>(minimum);
  return metric;
}

int min_route_companions(const DataPlane& dp) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const auto& [flow, paths] : dp.flows) {
    for (const auto& path : paths) {
      const auto routers = router_sequence(path);
      if (routers.empty()) continue;
      ++counts[{routers.front(), routers.back()}];
    }
  }
  if (counts.empty()) return 0;
  int minimum = INT_MAX;
  for (const auto& [pair, count] : counts) {
    minimum = std::min(minimum, count);
  }
  return minimum;
}

int topology_min_degree_class(const ConfigSet& configs) {
  return min_same_degree_class(Topology::build(configs).router_graph());
}

int topology_min_degree_class_two_level(const ConfigSet& configs) {
  const Topology topo = Topology::build(configs);

  std::map<int, std::vector<int>> by_as;
  for (int r = 0; r < topo.router_count(); ++r) {
    const auto& router =
        configs.routers[static_cast<std::size_t>(topo.node(r).config_index)];
    by_as[router.bgp ? router.bgp->local_as : -1].push_back(r);
  }
  if (by_as.size() == 1) {
    return min_same_degree_class(topo.router_graph());
  }

  int result = topo.router_count();
  Graph as_graph(static_cast<int>(by_as.size()));
  std::map<int, int> as_index;
  for (const auto& [as_number, members] : by_as) {
    const int idx = static_cast<int>(as_index.size());
    as_index[as_number] = idx;
  }

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
      } else {
        // Inter-AS link: contributes an AS-supergraph edge.
        const auto& ra = configs.routers[static_cast<std::size_t>(
            topo.node(link.a.node).config_index)];
        const auto& rb = configs.routers[static_cast<std::size_t>(
            topo.node(link.b.node).config_index)];
        const int as_a = ra.bgp ? ra.bgp->local_as : -1;
        const int as_b = rb.bgp ? rb.bgp->local_as : -1;
        if (as_a != as_b) as_graph.add_edge(as_index[as_a], as_index[as_b]);
      }
    }
    result = std::min(result, min_same_degree_class(subgraph));
  }
  result = std::min(result, min_same_degree_class(as_graph));
  return result;
}

double topology_clustering(const ConfigSet& configs) {
  return clustering_coefficient(Topology::build(configs).router_graph());
}

double config_utility(const LineStats& original,
                      const LineStats& anonymized) {
  const auto total = anonymized.total();
  if (total == 0) return 1.0;
  const auto added = total - original.total();
  return 1.0 - static_cast<double>(added) / static_cast<double>(total);
}

}  // namespace confmask
