#include "src/core/patch_mode.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "src/core/filters.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {

namespace {

/// True when every node of `topo` names, through its config_index, the
/// device of the same name in `configs`. A seeded simulation keeps the
/// snapshot's topology and reads configs.routers/hosts at those indexes,
/// while diff_config_sets matches devices by name and ignores their order:
/// a base captured in another device order diffs as filter-only and would
/// seed the wrong devices.
bool indexes_match(const Topology& topo, const ConfigSet& configs) {
  for (int id = 0; id < topo.node_count(); ++id) {
    const TopologyNode& node = topo.node(id);
    const auto index = static_cast<std::size_t>(node.config_index);
    const bool router = node.kind == NodeKind::kRouter;
    const std::size_t count =
        router ? configs.routers.size() : configs.hosts.size();
    if (node.config_index < 0 || index >= count ||
        (router ? configs.routers[index].hostname
                : configs.hosts[index].hostname) != node.name) {
      return false;
    }
  }
  return true;
}

// Equal but for passthrough lines.
bool same_but_passthrough(const InterfaceConfig& a, InterfaceConfig b) {
  b.extra_lines = a.extra_lines;
  return a == b;
}
bool same_but_passthrough(const HostConfig& a, HostConfig b) {
  b.extra_lines = a.extra_lines;
  return a == b;
}
bool same_but_passthrough(const RouterConfig& a, RouterConfig b) {
  b.extra_lines = a.extra_lines;
  if (a.interfaces.size() == b.interfaces.size()) {
    for (std::size_t i = 0; i < a.interfaces.size(); ++i) {
      b.interfaces[i].extra_lines = a.interfaces[i].extra_lines;
    }
  }
  if (a.ospf && b.ospf) b.ospf->extra_lines = a.ospf->extra_lines;
  if (a.rip && b.rip) b.rip->extra_lines = a.rip->extra_lines;
  if (a.bgp && b.bgp) b.bgp->extra_lines = a.bgp->extra_lines;
  return a == b;
}
bool same_but_passthrough(const RouterAppends& a, const RouterAppends& b) {
  return a.ospf_networks == b.ospf_networks &&
         a.rip_networks == b.rip_networks &&
         a.bgp_neighbors == b.bgp_neighbors &&
         std::ranges::equal(a.interfaces, b.interfaces,
                            [](const auto& x, const auto& y) {
                              return same_but_passthrough(x, y);
                            });
}
template <typename T>
bool all_same_but_passthrough(const std::vector<T>& a,
                              const std::vector<T>& b) {
  return std::ranges::equal(a, b, [](const T& x, const T& y) {
    return same_but_passthrough(x, y);
  });
}

/// Orders filters by router, each router's own in their order.
std::vector<EquivalenceFilter> by_router(
    std::vector<EquivalenceFilter> filters) {
  std::stable_sort(filters.begin(), filters.end(),
                   [](const EquivalenceFilter& x, const EquivalenceFilter& y) {
                     return x.router < y.router;
                   });
  return filters;
}

/// The filters of `router` in filters ordered by router.
std::span<const EquivalenceFilter> filters_of(
    const std::vector<EquivalenceFilter>& filters, int router) {
  const auto first = std::partition_point(
      filters.begin(), filters.end(),
      [router](const EquivalenceFilter& f) { return f.router < router; });
  const auto last = std::partition_point(
      first, filters.end(),
      [router](const EquivalenceFilter& f) { return f.router == router; });
  return {first, last};
}

/// The node ids of the routers whose own filters differ between `a` and
/// `b`, both ordered by router.
std::vector<int> routers_with_other_filters(
    const std::vector<EquivalenceFilter>& a,
    const std::vector<EquivalenceFilter>& b) {
  std::vector<int> routers;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    const int router = ib == b.end()   ? ia->router
                       : ia == a.end() ? ib->router
                                       : std::min(ia->router, ib->router);
    const auto mine = [router](const EquivalenceFilter& f) {
      return f.router == router;
    };
    const auto ea = std::find_if_not(ia, a.end(), mine);
    const auto eb = std::find_if_not(ib, b.end(), mine);
    if (!std::equal(ia, ea, ib, eb)) routers.push_back(router);
    ia = ea;
    ib = eb;
  }
  return routers;
}

/// Appends the names of the lists Algorithm 1's `filters` (ordered by
/// router) wrote on `router`, under either scope's name.
void add_written_lists(const Topology& topo,
                       const std::vector<EquivalenceFilter>& filters,
                       int router, std::vector<std::string>& names) {
  for (const EquivalenceFilter& filter : filters_of(filters, router)) {
    const Link& link = topo.link(filter.link);
    names.push_back(igp_filter_name(link.end_of(router).interface));
    names.push_back(bgp_filter_name(link.other_end(router).address));
  }
}

/// Whether `router` holds a prefix list named `name` or binds one.
bool holds_list(const RouterConfig* router, const std::string& name) {
  if (router == nullptr) return false;
  for (const PrefixList& list : router->prefix_lists) {
    if (list.name == name) return true;
  }
  const auto binds = [&name](const std::vector<DistributeList>& lists) {
    return std::any_of(lists.begin(), lists.end(),
                       [&name](const DistributeList& bound) {
                         return bound.prefix_list == name;
                       });
  };
  if ((router->ospf && binds(router->ospf->distribute_lists)) ||
      (router->rip && binds(router->rip->distribute_lists))) {
    return true;
  }
  if (router->bgp) {
    for (const BgpNeighbor& neighbor : router->bgp->neighbors) {
      if (std::find(neighbor.prefix_lists_in.begin(),
                    neighbor.prefix_lists_in.end(),
                    name) != neighbor.prefix_lists_in.end()) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::shared_ptr<const PatchContext> finish_capture(
    const PatchCapture& capture) {
  const PatchContext& live = capture.context;
  auto context = std::make_shared<PatchContext>(live);
  if (!live.original.valid()) {
    // The index and topology records answer diffs against the original
    // snapshot's configs; without those they are unusable.
    context->original = {};
    context->index = nullptr;
    context->topology = {};
  } else if (!capture.original_sim_reads_configs) {
    context->original.sim = live.original.sim->column_donor();
  }
  if (live.equivalence != nullptr) {
    context->equivalence = live.equivalence->column_donor();
  }
  if (live.anonymity == nullptr) {
    // The edit log is in the ids of the anonymity simulation's topology.
    context->anonymity_replay = {};
  } else {
    context->anonymity = live.anonymity == live.equivalence
                             ? context->equivalence
                             : live.anonymity->column_donor();
  }
  if (!context->original.valid() && context->equivalence == nullptr &&
      context->anonymity == nullptr) {
    return nullptr;
  }
  return context;
}

std::shared_ptr<Simulation> seed_simulation(const ConfigSet& configs,
                                            const Simulation& snapshot,
                                            const ConfigSetDiff& diff) {
  if (!diff.filter_only() || !indexes_match(snapshot.topology(), configs)) {
    return nullptr;
  }
  // The returned simulation references `configs`, not the snapshot's
  // bundle, because the caller's stage may keep mutating `configs` and
  // re-simulating against it.
  SimulationDelta delta;
  const Topology& topo = snapshot.topology();
  for (const DeviceChange& change : diff.devices) {
    if (change.dirty.empty()) continue;
    const int node = topo.find_node(change.name);
    if (node < 0 || !topo.is_router(node)) {
      // A filter-only diff names only devices present on both sides, so
      // this is unreachable in practice — fail closed rather than trust it.
      return nullptr;
    }
    for (const Ipv4Prefix& prefix : change.dirty) {
      delta.record(node, prefix);
    }
  }
  return std::make_shared<Simulation>(configs, snapshot, delta);
}

bool equivalence_replayable(const PatchContext& context,
                            const ConfigSet& original,
                            const ConfigSetDiff& original_diff,
                            const Simulation& entry) {
  if (context.anonymity == nullptr || !context.original.valid() ||
      !original_diff.filter_only() ||
      &entry.topology() != &context.anonymity->topology()) {
    return false;
  }
  for (const DeviceChange& change : original_diff.devices) {
    for (const Ipv4Prefix& dirty : change.dirty) {
      for (const HostConfig& host : original.hosts) {
        if (dirty.overlaps(host.prefix())) return false;
      }
    }
  }
  const Topology& topo = entry.topology();
  const std::vector<EquivalenceFilter> captured =
      by_router(context.equivalence_record.filters);
  for (const DeviceChange& change : original_diff.devices) {
    const int router = topo.find_node(change.name);
    if (router < 0) return false;
    if (!topo.is_router(router)) continue;  // Algorithm 1 writes on routers
    std::vector<std::string> written;
    add_written_lists(topo, captured, router, written);
    const RouterConfig* versions[] = {
        context.original.configs->find_router(change.name),
        original.find_router(change.name)};
    for (const std::string& name : written) {
      if (holds_list(versions[0], name) || holds_list(versions[1], name)) {
        return false;
      }
    }
  }
  return true;
}

bool anonymity_replayable(
    const PatchContext& context, const ConfMaskOptions& options,
    const Rng& rng, const ConfigSet& original,
    const ConfigSetDiff& original_diff,
    const std::vector<EquivalenceFilter>& equivalence_filters,
    const Simulation& entry) {
  const AnonymityPatch& patch = context.anonymity_replay;
  if (!patch.valid || context.anonymity == nullptr ||
      !context.original.valid() || !original_diff.filter_only() ||
      !(context.options == options) || !(patch.rng == rng) ||
      &entry.topology() != &context.anonymity->topology()) {
    return false;
  }
  std::vector<Ipv4Prefix> fake_lans;
  fake_lans.reserve(context.fake_hosts.size());
  for (const FakeHostRecord& host : context.fake_hosts) {
    fake_lans.push_back(host.lan);
  }
  std::sort(fake_lans.begin(), fake_lans.end());
  // The routers either version changed: by the diff, or by Algorithm 1's
  // filters where those differ between the runs.
  const Topology& topo = entry.topology();
  const std::vector<EquivalenceFilter> captured =
      by_router(context.equivalence_record.filters);
  const std::vector<EquivalenceFilter> current =
      by_router(equivalence_filters);
  std::vector<int> changed = routers_with_other_filters(captured, current);
  for (const DeviceChange& change : original_diff.devices) {
    for (const Ipv4Prefix& dirty : change.dirty) {
      for (const Ipv4Prefix& lan : fake_lans) {
        if (dirty.overlaps(lan)) return false;
      }
    }
    const int node = topo.find_node(change.name);
    if (node >= 0 && topo.is_router(node)) changed.push_back(node);
  }
  for (const int router : changed) {
    // The lists Algorithm 1 wrote on the router in either run, under
    // either scope's name. Its adds drop a list's permit-alls, so one that
    // lands in a list of the originals can decide a fake LAN; its own
    // lists deny real hosts only and decide none.
    std::vector<std::string> written;
    for (const auto* filters : {&captured, &current}) {
      add_written_lists(topo, *filters, router, written);
    }
    // FilterEditor's add and remove act on exact-prefix deny entries: none
    // may exist for a fake LAN on a changed router, or an edit could take
    // effect in one run and not the other.
    const auto hazardous = [&](const RouterConfig* config) {
      if (config == nullptr) return false;
      for (const PrefixList& list : config->prefix_lists) {
        if (std::find(written.begin(), written.end(), list.name) !=
            written.end()) {
          return true;
        }
        for (const PrefixListEntry& entry : list.entries) {
          if (!entry.permit && std::binary_search(fake_lans.begin(),
                                                  fake_lans.end(),
                                                  entry.prefix)) {
            return true;
          }
        }
      }
      return false;
    };
    const std::string& name = topo.node(router).name;
    if (hazardous(context.original.configs->find_router(name)) ||
        hazardous(original.find_router(name))) {
      return false;
    }
  }
  return true;
}

OriginalReusePlan plan_original_reuse(const ConfigSet& configs,
                                      const PatchContext& context) {
  OriginalReusePlan plan;
  if (!context.original.valid()) return plan;
  plan.diff = diff_config_sets(*context.original.configs, configs);
  plan.sim = seed_simulation(configs, *context.original.sim, plan.diff);
  if (plan.sim == nullptr) return plan;
  plan.index_reusable = !plan.diff.acls_changed();
  for (const DeviceChange& change : plan.diff.devices) {
    plan.dirty.insert(plan.dirty.end(), change.dirty.begin(),
                      change.dirty.end());
  }
  return plan;
}

std::optional<TopologyAppends> topology_appends(const ConfigSet& before,
                                                const ConfigSet& after) {
  if (before.routers.size() > after.routers.size() ||
      before.hosts.size() > after.hosts.size()) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < before.hosts.size(); ++i) {
    if (before.hosts[i] != after.hosts[i]) return std::nullopt;
  }
  // The elements past `first` of a container the stages append to.
  const auto tail = [](const auto& from, std::size_t first, auto& to) {
    if (from.size() < first) return false;
    to.assign(from.begin() + static_cast<std::ptrdiff_t>(first), from.end());
    return true;
  };
  TopologyAppends appends;
  appends.routers.resize(before.routers.size());
  for (std::size_t i = 0; i < before.routers.size(); ++i) {
    const RouterConfig& pre = before.routers[i];
    const RouterConfig& post = after.routers[i];
    // Containers the stages never touch: any drift means they did more
    // than append.
    if (pre.hostname != post.hostname ||
        post.prefix_lists.size() != pre.prefix_lists.size() ||
        post.access_lists.size() != pre.access_lists.size() ||
        post.static_routes.size() != pre.static_routes.size() ||
        post.extra_lines.size() != pre.extra_lines.size() ||
        pre.ospf.has_value() != post.ospf.has_value() ||
        pre.rip.has_value() != post.rip.has_value() ||
        pre.bgp.has_value() != post.bgp.has_value()) {
      return std::nullopt;
    }
    RouterAppends& added = appends.routers[i];
    if (!tail(post.interfaces, pre.interfaces.size(), added.interfaces) ||
        (pre.ospf && !tail(post.ospf->networks, pre.ospf->networks.size(),
                           added.ospf_networks)) ||
        (pre.rip && !tail(post.rip->networks, pre.rip->networks.size(),
                          added.rip_networks)) ||
        (pre.bgp && !tail(post.bgp->neighbors, pre.bgp->neighbors.size(),
                          added.bgp_neighbors))) {
      return std::nullopt;
    }
  }
  appends.fake_routers.assign(
      after.routers.begin() +
          static_cast<std::ptrdiff_t>(before.routers.size()),
      after.routers.end());
  appends.fake_hosts.assign(
      after.hosts.begin() + static_cast<std::ptrdiff_t>(before.hosts.size()),
      after.hosts.end());
  return appends;
}

std::vector<FakeHostRecord> fake_host_records(const ConfigSet& configs,
                                              std::size_t count) {
  std::vector<FakeHostRecord> records;
  records.reserve(count);
  for (std::size_t i = configs.hosts.size() - count; i < configs.hosts.size();
       ++i) {
    const HostConfig& host = configs.hosts[i];
    records.push_back(FakeHostRecord{host.hostname, host.prefix(),
                                     host.gateway});
  }
  return records;
}

bool topology_matches_capture(const PatchContext& context,
                              const TopologyAppends& appends) {
  const TopologyPatch& topo = context.topology;
  return topo.valid &&
         all_same_but_passthrough(appends.routers, topo.appends.routers) &&
         all_same_but_passthrough(appends.fake_routers,
                                  topo.appends.fake_routers) &&
         all_same_but_passthrough(appends.fake_hosts, topo.appends.fake_hosts);
}

bool graft_topology(ConfigSet& configs, const PatchContext& context,
                    Rng& rng, PrefixAllocator& allocator,
                    TopologyAnonymizationOutcome& outcome) {
  const TopologyPatch& topo = context.topology;
  if (!topo.valid || !context.original.valid()) return false;
  const ConfigSet& pre = *context.original.configs;
  const TopologyAppends& appends = topo.appends;
  // The stage only ever APPENDS to existing routers; a changed roster
  // means some other stage (node addition) ran — not replayable here.
  if (!appends.fake_routers.empty() || !appends.fake_hosts.empty() ||
      appends.routers.size() != pre.routers.size() ||
      configs.routers.size() != pre.routers.size() ||
      configs.hosts.size() != pre.hosts.size()) {
    return false;
  }

  // Verify-then-apply in two passes so a failed check leaves `configs`
  // untouched for the from-scratch fallback. The captured run's devices
  // must sit at the same positions in `configs`: the grafted outcome is in
  // node ids, which follow device order.
  for (std::size_t i = 0; i < pre.hosts.size(); ++i) {
    if (pre.hosts[i].hostname != configs.hosts[i].hostname) return false;
  }
  for (std::size_t i = 0; i < pre.routers.size(); ++i) {
    const RouterConfig& before = pre.routers[i];
    const RouterConfig& current = configs.routers[i];
    // Containers the stage appends to: current must still start where the
    // captured run started.
    if (before.hostname != current.hostname ||
        current.interfaces.size() != before.interfaces.size() ||
        before.ospf.has_value() != current.ospf.has_value() ||
        before.rip.has_value() != current.rip.has_value() ||
        before.bgp.has_value() != current.bgp.has_value()) {
      return false;
    }
    // Fake interfaces clone the first real interface's passthrough lines
    // (materialize_fake_link); those lines are on the filter-only edit
    // surface, so an edit there makes the captured clones stale.
    for (const InterfaceConfig& added : appends.routers[i].interfaces) {
      if (current.interfaces.empty() ||
          added.extra_lines != current.interfaces.front().extra_lines) {
        return false;
      }
    }
  }

  for (std::size_t i = 0; i < pre.routers.size(); ++i) {
    const RouterAppends& added = appends.routers[i];
    RouterConfig& current = configs.routers[i];
    current.interfaces.insert(current.interfaces.end(),
                              added.interfaces.begin(),
                              added.interfaces.end());
    if (current.ospf) {
      current.ospf->networks.insert(current.ospf->networks.end(),
                                    added.ospf_networks.begin(),
                                    added.ospf_networks.end());
    }
    if (current.rip) {
      current.rip->networks.insert(current.rip->networks.end(),
                                   added.rip_networks.begin(),
                                   added.rip_networks.end());
    }
    if (current.bgp) {
      current.bgp->neighbors.insert(current.bgp->neighbors.end(),
                                    added.bgp_neighbors.begin(),
                                    added.bgp_neighbors.end());
    }
  }

  rng = topo.rng;
  allocator = topo.allocator;
  outcome = topo.outcome;
  return true;
}

}  // namespace confmask
