#include "src/nethide/nethide.hpp"

#include "src/core/topology_anonymization.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {

NetHideResult run_nethide(const ConfigSet& original,
                          const NetHideOptions& options) {
  NetHideResult result;
  result.obfuscated = original;

  PrefixAllocator allocator;
  for (const auto& prefix : original.used_prefixes()) {
    allocator.reserve(prefix);
  }
  Rng rng(options.seed);

  // Capacity-spreading links first (NetHide's security objective): random
  // non-adjacent router pairs at default cost. NetHide operates on the
  // flat topology and ignores AS boundaries; a cross-AS virtual link is
  // materialized as an eBGP session.
  {
    const Topology topo = Topology::build(result.obfuscated);
    const auto as_of = [&](int node) {
      const auto& router = result.obfuscated.routers[static_cast<std::size_t>(
          topo.node(node).config_index)];
      return router.bgp ? router.bgp->local_as : -1;
    };
    Graph graph = topo.router_graph();
    const std::size_t budget = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               options.extra_link_fraction *
               static_cast<double>(topo.router_link_count())));
    std::size_t placed = 0;
    const int n = topo.router_count();
    for (int attempt = 0; placed < budget && attempt < 200 * n; ++attempt) {
      const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      if (u == v || graph.has_edge(u, v)) continue;
      graph.add_edge(u, v);
      auto& routers = result.obfuscated.routers;  // router id == index
      materialize_fake_link(routers[static_cast<std::size_t>(u)],
                            routers[static_cast<std::size_t>(v)],
                            FakeLinkCostPolicy::kDefault, -1, -1, allocator,
                            /*inter_as=*/as_of(u) != as_of(v));
      ++placed;
    }
    result.fake_links += placed;
  }

  // Then degree-flattening fake links, also at DEFAULT cost, so the
  // published forwarding trees follow the virtual topology's shortest
  // paths — no route fixing, no fake hosts.
  const auto outcome =
      anonymize_topology(result.obfuscated, nullptr, options.k_r,
                         FakeLinkCostPolicy::kDefault, rng, allocator);
  result.fake_links += outcome.total_links();

  const Simulation sim(result.obfuscated);
  result.data_plane = sim.extract_data_plane();
  return result;
}

}  // namespace confmask
