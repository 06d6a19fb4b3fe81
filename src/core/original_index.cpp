#include "src/core/original_index.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "src/util/thread_pool.hpp"

namespace confmask {

namespace {

using FlowColumns = std::vector<std::shared_ptr<const Simulation::FlowColumn>>;

/// `previous` with the columns toward every host whose prefix overlaps
/// `dirty` re-walked on `sim`. Flows are keyed (src, dst) and — absent
/// ACLs — depend only on the FIB columns toward dst, so only dirty
/// DESTINATIONS need a new walk; every other column stays shared.
FlowColumns splice_flows(const Simulation& sim, const FlowColumns& previous,
                         const std::vector<Ipv4Prefix>& dirty) {
  const int routers = sim.topology().router_count();
  std::vector<int> dirty_hosts;
  for (int host : sim.topology().host_ids()) {
    const Ipv4Prefix& prefix = sim.host_prefix(host);
    if (std::any_of(dirty.begin(), dirty.end(),
                    [&](const Ipv4Prefix& region) {
                      return region.overlaps(prefix);
                    })) {
      dirty_hosts.push_back(host);
    }
  }
  FlowColumns spliced = previous;
  FlowColumns walked = sim.flow_columns(dirty_hosts);
  for (std::size_t i = 0; i < dirty_hosts.size(); ++i) {
    spliced[static_cast<std::size_t>(dirty_hosts[i] - routers)] =
        std::move(walked[i]);
  }
  return spliced;
}

/// True iff group `expected_group` of `expected` and group `actual_group`
/// of `actual` (both -1 for "nothing delivered") hold the same paths.
/// `actual`'s nodes are already in `expected`'s ids, its paths visited in
/// `order`, sorted within each group.
bool same_paths(const Simulation::FlowColumn& expected,
                std::int32_t expected_group,
                const Simulation::FlowColumn& actual,
                std::int32_t actual_group,
                const std::vector<std::uint32_t>& order) {
  if (expected_group < 0 || actual_group < 0) {
    return expected_group < 0 && actual_group < 0;
  }
  const auto group = [](const Simulation::FlowColumn& column,
                        std::int32_t g) {
    return std::make_pair(column.group_first[static_cast<std::size_t>(g)],
                          column.group_first[static_cast<std::size_t>(g) + 1]);
  };
  const auto [first, last] = group(expected, expected_group);
  const auto [actual_first, actual_last] = group(actual, actual_group);
  if (last - first != actual_last - actual_first) return false;
  for (std::uint32_t k = 0; k < last - first; ++k) {
    const std::uint32_t p = first + k;
    const std::uint32_t q = order[actual_first + k];
    if (!std::equal(expected.nodes.begin() + expected.path_first[p],
                    expected.nodes.begin() + expected.path_first[p + 1],
                    actual.nodes.begin() + actual.path_first[q],
                    actual.nodes.begin() + actual.path_first[q + 1])) {
      return false;
    }
  }
  return true;
}

}  // namespace

OriginalIndex::OriginalIndex(const Simulation& sim)
    : OriginalIndex(sim, sim.flow_columns(sim.topology().host_ids())) {}

OriginalIndex::OriginalIndex(const Simulation& sim,
                             const OriginalIndex& previous,
                             const std::vector<Ipv4Prefix>& dirty)
    : OriginalIndex(sim, splice_flows(sim, previous.flows_, dirty)) {}

OriginalIndex::OriginalIndex(const Simulation& sim, FlowColumns flows)
    : topology_(sim.topology_ptr()),
      flat_(sim.flat_ptr()),
      columns_(sim.fib_columns()),
      flows_(std::move(flows)) {
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

std::size_t OriginalIndex::flow_count() const {
  std::size_t flows = 0;
  for (const auto& column : flows_) {
    flows += static_cast<std::size_t>(
        std::count_if(column->group_of.begin(), column->group_of.end(),
                      [](std::int32_t group) { return group >= 0; }));
  }
  return flows;
}

DataPlane OriginalIndex::data_plane() const {
  return Simulation::named_data_plane(*topology_, flows_);
}

OriginalIndex::FlowComparison OriginalIndex::compare_real_flows(
    const Simulation& sim, const FlowKey* undelivered,
    const VerifiedBase& base) const {
  const Topology& now = sim.topology();
  const std::vector<int> ids = original_ids(now);
  const int routers = topology_->router_count();
  const int hosts = topology_->node_count() - routers;
  const int now_routers = now.router_count();
  // Each original host's id in `sim` (-1: absent), and the hosts of `sim`
  // to walk from: the real ones (fake hosts map to no original node).
  std::vector<int> current(static_cast<std::size_t>(hosts), -1);
  std::vector<char> real(static_cast<std::size_t>(now.node_count() -
                                                  now_routers),
                         0);
  for (int host = now_routers; host < now.node_count(); ++host) {
    const int original = ids[static_cast<std::size_t>(host)];
    if (original < 0) continue;
    current[static_cast<std::size_t>(original - routers)] = host;
    real[static_cast<std::size_t>(host - now_routers)] = 1;
  }
  int skip_src = -1;
  int skip_dst = -1;
  if (undelivered != nullptr) {
    skip_src = topology_->find_node(undelivered->first) - routers;
    skip_dst = topology_->find_node(undelivered->second) - routers;
  }

  // Compares every real flow toward original host index `d`; counts the
  // flows compared up to and including a mismatch.
  const auto compare_destination = [&](int d, std::size_t& compared,
                                       std::uint32_t& truncated) {
    const Simulation::FlowColumn& expected =
        *flows_[static_cast<std::size_t>(d)];
    const int dst_now = current[static_cast<std::size_t>(d)];
    Simulation::FlowColumn actual;
    if (dst_now >= 0) actual = sim.flow_column(dst_now, &real);
    truncated = actual.truncated;
    for (int& node : actual.nodes) node = ids[static_cast<std::size_t>(node)];
    std::vector<std::uint32_t> order(actual.path_first.size() - 1);
    std::iota(order.begin(), order.end(), 0u);
    const auto path_less = [&actual](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(
          actual.nodes.begin() + actual.path_first[a],
          actual.nodes.begin() + actual.path_first[a + 1],
          actual.nodes.begin() + actual.path_first[b],
          actual.nodes.begin() + actual.path_first[b + 1]);
    };
    for (std::size_t g = 0; g + 1 < actual.group_first.size(); ++g) {
      std::sort(order.begin() + actual.group_first[g],
                order.begin() + actual.group_first[g + 1], path_less);
    }
    for (int s = 0; s < hosts; ++s) {
      if (s == d) continue;
      ++compared;
      const int src_now = current[static_cast<std::size_t>(s)];
      std::int32_t actual_group = -1;
      if (dst_now >= 0 && src_now >= 0 && !(s == skip_src && d == skip_dst)) {
        actual_group =
            actual.group_of[static_cast<std::size_t>(src_now - now_routers)];
      }
      if (!same_paths(expected, expected.group_of[static_cast<std::size_t>(s)],
                      actual, actual_group, order)) {
        return false;
      }
    }
    return true;
  };

  // Destinations the base run's gate already matched (see VerifiedBase).
  const bool same_network =
      base.index != nullptr && base.sim != nullptr &&
      base.index->flows_.size() == flows_.size() &&
      &sim.topology() == &base.sim->topology();
  const auto proved = [&](int d) {
    const int dst_now = current[static_cast<std::size_t>(d)];
    if (!same_network || d == skip_dst || dst_now < 0) return false;
    const auto column = static_cast<std::size_t>(dst_now - now_routers);
    return flows_[static_cast<std::size_t>(d)] ==
               base.index->flows_[static_cast<std::size_t>(d)] &&
           sim.fib_columns()[column] == base.sim->fib_columns()[column];
  };
  std::vector<char> proven(static_cast<std::size_t>(hosts), 0);
  std::vector<int> walked;
  for (int d = 0; d < hosts; ++d) {
    if (proved(d)) {
      proven[static_cast<std::size_t>(d)] = 1;
    } else {
      walked.push_back(d);
    }
  }

  // Destinations run in any order; the count stays deterministic because
  // every destination below the first mismatching one runs to completion.
  std::atomic<int> first_mismatch{hosts};
  std::vector<std::size_t> compared(static_cast<std::size_t>(hosts), 0);
  std::vector<std::uint32_t> truncated(static_cast<std::size_t>(hosts), 0);
  ThreadPool::shared().parallel_for(walked.size(), [&](std::size_t i) {
    const int d = walked[i];
    const auto slot = static_cast<std::size_t>(d);
    if (d > first_mismatch.load()) return;
    if (compare_destination(d, compared[slot], truncated[slot])) return;
    int seen = first_mismatch.load();
    while (d < seen && !first_mismatch.compare_exchange_weak(seen, d)) {
    }
  });
  Simulation::report_truncated(
      std::accumulate(truncated.begin(), truncated.end(), std::size_t{0}));

  FlowComparison out;
  const int stop = first_mismatch.load();
  out.equal = stop == hosts;
  for (int d = 0; d < std::min(stop + 1, hosts); ++d) {
    const auto slot = static_cast<std::size_t>(d);
    out.real_flows_compared += compared[slot];
    if (proven[slot] != 0) {
      out.real_flows_proved += static_cast<std::size_t>(hosts - 1);
    }
  }
  return out;
}

}  // namespace confmask
