#include "src/core/original_index.hpp"

#include <algorithm>

namespace confmask {

OriginalIndex::OriginalIndex(const Simulation& sim) {
  const Topology& topo = sim.topology();

  for (int r = 0; r < topo.router_count(); ++r) {
    routers_.insert(topo.node(r).name);
  }
  for (int host : topo.host_ids()) real_hosts_.insert(topo.node(host).name);

  for (const auto& link : topo.links()) {
    if (!topo.is_router(link.a.node) || !topo.is_router(link.b.node)) {
      continue;
    }
    auto names = std::minmax(topo.node(link.a.node).name,
                             topo.node(link.b.node).name);
    edges_.emplace(names.first, names.second);
  }

  for (int r = 0; r < topo.router_count(); ++r) {
    for (int host : topo.host_ids()) {
      for (const NextHop& hop : sim.fib(r, host)) {
        fib_[{topo.node(r).name, topo.node(host).name}].insert(
            topo.node(hop.neighbor).name);
      }
    }
  }

  data_plane_ = sim.extract_data_plane();
}

OriginalIndex::OriginalIndex(const Simulation& sim,
                             const OriginalIndex& previous,
                             const std::vector<Ipv4Prefix>& dirty)
    : edges_(previous.edges_),
      fib_(previous.fib_),
      data_plane_(previous.data_plane_),
      real_hosts_(previous.real_hosts_),
      routers_(previous.routers_) {
  const Topology& topo = sim.topology();

  std::vector<int> dirty_hosts;
  for (int host : topo.host_ids()) {
    const Ipv4Prefix& prefix = sim.host_prefix(host);
    for (const Ipv4Prefix& region : dirty) {
      if (region.overlaps(prefix)) {
        dirty_hosts.push_back(host);
        break;
      }
    }
  }
  if (dirty_hosts.empty()) return;

  for (int host : dirty_hosts) {
    const std::string& host_name = topo.node(host).name;
    for (int r = 0; r < topo.router_count(); ++r) {
      // Erase-then-refill: a row can shrink to empty (new deny), and an
      // empty row must be ABSENT, exactly as the full snapshot leaves it.
      const auto key = std::make_pair(topo.node(r).name, host_name);
      fib_.erase(key);
      for (const NextHop& hop : sim.fib(r, host)) {
        fib_[key].insert(topo.node(hop.neighbor).name);
      }
    }
  }

  // Flows are keyed (src, dst) and — absent ACLs — depend only on the FIB
  // columns toward dst, so only dirty DESTINATIONS need re-extraction.
  std::set<std::string> dirty_names;
  for (int host : dirty_hosts) dirty_names.insert(topo.node(host).name);
  for (auto it = data_plane_.flows.begin(); it != data_plane_.flows.end();) {
    if (dirty_names.count(it->first.second) != 0) {
      it = data_plane_.flows.erase(it);
    } else {
      ++it;
    }
  }
  DataPlane partial = sim.extract_data_plane(dirty_hosts);
  for (auto& [key, paths] : partial.flows) {
    data_plane_.flows.emplace(key, std::move(paths));
  }
}

bool OriginalIndex::is_original_edge(const std::string& a,
                                     const std::string& b) const {
  auto names = std::minmax(a, b);
  return edges_.count({names.first, names.second}) != 0;
}

bool OriginalIndex::is_original_next_hop(const std::string& router,
                                         const std::string& host,
                                         const std::string& next_hop) const {
  const auto it = fib_.find({router, host});
  return it != fib_.end() && it->second.count(next_hop) != 0;
}

}  // namespace confmask
