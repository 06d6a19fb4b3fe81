#include "src/core/strawman.hpp"

#include <algorithm>

#include "src/core/filters.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {

namespace {

/// The topology link between two routers (by node id), or -1.
int find_link_between(const Topology& topo, int a, int b) {
  for (int link_id : topo.links_of(a)) {
    if (topo.link(link_id).other_end(a).node == b) return link_id;
  }
  return -1;
}

}  // namespace

RouteEquivalenceOutcome strawman1_route_fix(ConfigSet& configs,
                                            const OriginalIndex& index) {
  RouteEquivalenceOutcome outcome;
  const Topology topo = Topology::build(configs);
  const std::vector<int> original = index.original_ids(topo);
  FilterEditor editor(configs, topo);

  // Collect all real host prefixes once.
  std::vector<Ipv4Prefix> real_prefixes;
  for (const auto& host : configs.hosts) {
    if (index.real_hosts().count(host.hostname) != 0) {
      real_prefixes.push_back(host.prefix());
    }
  }

  for (std::size_t l = 0; l < topo.links().size(); ++l) {
    const Link& link = topo.link(static_cast<int>(l));
    if (!topo.is_router(link.a.node) || !topo.is_router(link.b.node)) {
      continue;
    }
    if (index.is_original_edge(
            original[static_cast<std::size_t>(link.a.node)],
            original[static_cast<std::size_t>(link.b.node)])) {
      continue;
    }
    for (int end : {link.a.node, link.b.node}) {
      for (const auto& prefix : real_prefixes) {
        if (editor.add(end, static_cast<int>(l), prefix)) {
          ++outcome.filters_added;
        }
      }
    }
  }
  outcome.converged = true;  // provably blocks every fake-link import
  return outcome;
}

RouteEquivalenceOutcome strawman2_route_fix(ConfigSet& configs,
                                            const OriginalIndex& index,
                                            int max_iterations) {
  RouteEquivalenceOutcome outcome;
  // The node set is frozen across iterations: resolve names once.
  const Topology frozen = Topology::build(configs);
  const std::vector<int> original = index.original_ids(frozen);
  FilterEditor editor(configs, frozen);
  // The traceroute compares device names, in the original plane's flow
  // order.
  const DataPlane original_dp = index.data_plane();
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    const Simulation sim(configs);
    const Topology& topo = sim.topology();
    ++outcome.iterations;

    int mismatched = 0;
    int added = 0;
    // One filter per re-simulation: the hop-by-hop traceroute comparison
    // has no way to know the next divergence until the control plane
    // re-converges (BGP "selects a local equilibrium rather than a global
    // optimum", §4.3) — this per-filter re-simulation is exactly the
    // impractical cost the paper measures in Fig 16.
    for (const auto& [flow, original_paths] : original_dp.flows) {
      if (added > 0) break;
      const int src = topo.find_node(flow.first);
      const int dst = topo.find_node(flow.second);
      if (src < 0 || dst < 0) continue;
      const auto current = sim.paths(src, dst);
      if (current == original_paths) continue;
      ++mismatched;

      // Pick a wrong path: one present now but not in the original set.
      const Path* wrong = nullptr;
      for (const auto& path : current) {
        if (std::find(original_paths.begin(), original_paths.end(), path) ==
            original_paths.end()) {
          wrong = &path;
          break;
        }
      }
      if (wrong == nullptr) continue;  // only missing paths; not fixable here

      // Longest suffix of the wrong path matching some original path.
      std::size_t best_suffix = 1;  // the destination host always matches
      for (const auto& original : original_paths) {
        std::size_t l = 0;
        while (l < wrong->size() && l < original.size() &&
               (*wrong)[wrong->size() - 1 - l] ==
                   original[original.size() - 1 - l]) {
          ++l;
        }
        best_suffix = std::max(best_suffix, l);
      }

      // The paper filters at the first different hop closest to the
      // destination; walk back further if that edge is real (filtering a
      // real adjacency could black-hole original routes).
      for (std::size_t j = wrong->size() - best_suffix; j >= 2; --j) {
        const int from_node = topo.find_node((*wrong)[j - 1]);
        const int to_node = topo.find_node((*wrong)[j]);
        // Only router-router FAKE edges are filterable.
        if (!topo.is_router(from_node) || !topo.is_router(to_node)) continue;
        if (index.is_original_edge(
                original[static_cast<std::size_t>(from_node)],
                original[static_cast<std::size_t>(to_node)])) {
          continue;
        }
        const int link_id = find_link_between(topo, from_node, to_node);
        if (link_id < 0) continue;
        if (editor.add(from_node, link_id, sim.host_prefix(dst))) {
          ++added;
        }
        break;
      }
    }

    outcome.filters_added += added;
    if (mismatched == 0) {
      outcome.converged = true;
      break;
    }
    if (added == 0) break;  // stuck: remaining mismatches not fixable
  }
  return outcome;
}

}  // namespace confmask
