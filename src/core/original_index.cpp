#include "src/core/original_index.hpp"

#include <algorithm>
#include <utility>

namespace confmask {

namespace {

/// `previous` with the flows toward every host whose prefix overlaps
/// `dirty` re-extracted from `sim`. Flows are keyed (src, dst) and — absent
/// ACLs — depend only on the FIB columns toward dst, so only dirty
/// DESTINATIONS need re-extraction.
DataPlane splice_flows(const Simulation& sim, const DataPlane& previous,
                       const std::vector<Ipv4Prefix>& dirty) {
  const Topology& topo = sim.topology();
  std::vector<int> dirty_hosts;
  std::set<std::string> dirty_names;
  for (int host : topo.host_ids()) {
    const Ipv4Prefix& prefix = sim.host_prefix(host);
    if (std::any_of(dirty.begin(), dirty.end(),
                    [&](const Ipv4Prefix& region) {
                      return region.overlaps(prefix);
                    })) {
      dirty_hosts.push_back(host);
      dirty_names.insert(topo.node(host).name);
    }
  }
  DataPlane spliced = previous;
  std::erase_if(spliced.flows, [&](const auto& flow) {
    return dirty_names.count(flow.first.second) != 0;
  });
  spliced.flows.merge(sim.extract_data_plane(dirty_hosts).flows);
  return spliced;
}

}  // namespace

OriginalIndex::OriginalIndex(const Simulation& sim)
    : OriginalIndex(sim, sim.extract_data_plane()) {}

OriginalIndex::OriginalIndex(const Simulation& sim,
                             const OriginalIndex& previous,
                             const std::vector<Ipv4Prefix>& dirty)
    : OriginalIndex(sim, splice_flows(sim, previous.data_plane_, dirty)) {}

OriginalIndex::OriginalIndex(const Simulation& sim, DataPlane data_plane)
    : topology_(sim.topology_ptr()),
      flat_(sim.flat_ptr()),
      columns_(sim.fib_columns()),
      data_plane_(std::move(data_plane)) {
  for (int host : topology_->host_ids()) {
    real_hosts_.insert(topology_->node(host).name);
  }
}

std::vector<int> OriginalIndex::original_ids(const Topology& current) const {
  std::vector<int> ids(static_cast<std::size_t>(current.node_count()), -1);
  for (int id = 0; id < current.node_count(); ++id) {
    const int original = topology_->find_node(current.node(id).name);
    if (original >= 0 &&
        topology_->is_router(original) == current.is_router(id)) {
      ids[static_cast<std::size_t>(id)] = original;
    }
  }
  return ids;
}

bool OriginalIndex::is_original_edge(int a, int b) const {
  const int routers = topology_->router_count();
  if (a < 0 || b < 0 || a >= routers || b >= routers) return false;
  const std::int32_t last = flat_->last_out(a);
  for (std::int32_t e = flat_->first_out(a); e < last; ++e) {
    if (flat_->edge_target(e) == b) return true;
  }
  return false;
}

bool OriginalIndex::is_original_next_hop(int router, int host,
                                         int next_hop) const {
  const int routers = topology_->router_count();
  if (router < 0 || router >= routers || host < routers ||
      host >= topology_->node_count() || next_hop < 0) {
    return false;
  }
  const auto& column = columns_[static_cast<std::size_t>(host - routers)];
  if (column == nullptr) return false;
  const FibView hops = column->view(router);
  return std::any_of(hops.begin(), hops.end(), [&](const NextHop& hop) {
    return hop.neighbor == next_hop;
  });
}

}  // namespace confmask
