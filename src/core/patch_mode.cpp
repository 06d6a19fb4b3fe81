#include "src/core/patch_mode.hpp"

#include <algorithm>
#include <utility>

#include "src/routing/simulation.hpp"

namespace confmask {

namespace {

PatchSnapshot rebase_stage(const PatchCapture::Stage& stage) {
  PatchSnapshot snapshot;
  if (stage.configs == nullptr || stage.live == nullptr) return snapshot;
  snapshot.configs = stage.configs;
  // Empty delta: every FIB column and the topology arenas are aliased from
  // the live simulation; only the filter index is re-derived, from the
  // clone this time, making the snapshot independent of the pipeline's
  // (since-mutated, possibly destroyed) working configs.
  snapshot.sim = std::make_shared<const Simulation>(
      *snapshot.configs, *stage.live, SimulationDelta{});
  return snapshot;
}

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

/// Maps a filter-only diff onto the snapshot's node ids. Returns the
/// seeded simulation, or null when the diff is structural, names a device
/// the snapshot's topology does not know, or the snapshot's config indexes
/// do not name the same devices in `configs`.
std::shared_ptr<Simulation> seed_from_diff(const ConfigSet& configs,
                                           const PatchSnapshot& snapshot,
                                           const ConfigSetDiff& diff) {
  if (!diff.filter_only() ||
      !indexes_match(snapshot.sim->topology(), configs)) {
    return nullptr;
  }
  if (diff.identical()) {
    // Still rebuild through the (cheap, fully aliasing) incremental path:
    // the returned simulation must reference `configs`, not the snapshot's
    // own clone, because the caller's stage may keep mutating `configs`
    // and re-simulating against it.
    return std::make_shared<Simulation>(configs, *snapshot.sim,
                                        SimulationDelta{});
  }
  SimulationDelta delta;
  const Topology& topo = snapshot.sim->topology();
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
  return std::make_shared<Simulation>(configs, *snapshot.sim, delta);
}

}  // namespace

std::shared_ptr<const PatchContext> finish_capture(
    const PatchCapture& capture) {
  auto context = std::make_shared<PatchContext>();
  context->original = rebase_stage(capture.original);
  context->equivalence = rebase_stage(capture.equivalence);
  context->anonymity = rebase_stage(capture.anonymity);
  if (!context->original.valid() && !context->equivalence.valid() &&
      !context->anonymity.valid()) {
    return nullptr;
  }
  // The index and topology snapshots answer diffs against the original
  // snapshot's configs; without those they are unusable.
  if (context->original.valid()) {
    context->index = capture.index;
    if (capture.topology.valid && capture.topology.result != nullptr) {
      context->topology = capture.topology;
    }
  }
  // The edit log is in the ids of the anonymity snapshot's topology.
  if (context->anonymity.valid()) {
    context->anonymity_replay = capture.anonymity_replay;
  }
  context->options = capture.options;
  context->verified = capture.verified;
  return context;
}

std::shared_ptr<Simulation> seed_simulation(const ConfigSet& configs,
                                            const PatchSnapshot& snapshot) {
  if (!snapshot.valid()) return nullptr;
  return seed_from_diff(configs, snapshot,
                        diff_config_sets(*snapshot.configs, configs));
}

bool anonymity_replayable(const PatchContext& context,
                          const ConfMaskOptions& options, const Rng& rng,
                          const ConfigSet& configs,
                          const ConfigSetDiff& entry_diff,
                          const Simulation& entry,
                          const std::vector<std::string>& fake_hosts) {
  const AnonymityPatch& patch = context.anonymity_replay;
  if (!patch.valid || !context.anonymity.valid() ||
      !entry_diff.filter_only() || !(context.options == options) ||
      !(patch.rng == rng) ||
      &entry.topology() != &context.anonymity.sim->topology()) {
    return false;
  }
  std::vector<Ipv4Prefix> fake_lans;
  fake_lans.reserve(fake_hosts.size());
  for (const std::string& name : fake_hosts) {
    const int node = entry.topology().find_node(name);
    if (node < entry.topology().router_count()) return false;
    fake_lans.push_back(entry.host_prefix(node));
  }
  std::sort(fake_lans.begin(), fake_lans.end());
  const auto names_fake_lan = [&](const RouterConfig* router) {
    if (router == nullptr) return false;
    for (const PrefixList& list : router->prefix_lists) {
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
  for (const DeviceChange& change : entry_diff.devices) {
    for (const Ipv4Prefix& dirty : change.dirty) {
      for (const Ipv4Prefix& lan : fake_lans) {
        if (dirty.overlaps(lan)) return false;
      }
    }
    // FilterEditor's add and remove act on exact-prefix deny entries: none may exist for a fake LAN on a device the edit changed,
    // or an edit could take effect in one run and not the other.
    if (names_fake_lan(context.anonymity.configs->find_router(change.name)) ||
        names_fake_lan(configs.find_router(change.name))) {
      return false;
    }
  }
  return true;
}

OriginalReusePlan plan_original_reuse(const ConfigSet& configs,
                                      const PatchContext& context) {
  OriginalReusePlan plan;
  if (!context.original.valid()) return plan;
  const ConfigSetDiff diff =
      diff_config_sets(*context.original.configs, configs);
  plan.sim = seed_from_diff(configs, context.original, diff);
  if (plan.sim == nullptr) return plan;
  plan.index_reusable = !diff.acls_changed();
  for (const DeviceChange& change : diff.devices) {
    plan.dirty.insert(plan.dirty.end(), change.dirty.begin(),
                      change.dirty.end());
  }
  return plan;
}

bool graft_topology(ConfigSet& configs, const PatchContext& context,
                    Rng& rng, PrefixAllocator& allocator,
                    TopologyAnonymizationOutcome& outcome) {
  const TopologyPatch& topo = context.topology;
  if (!topo.valid || topo.result == nullptr || !context.original.valid()) {
    return false;
  }
  const ConfigSet& pre = *context.original.configs;
  const ConfigSet& post = *topo.result;
  // The stage only ever APPENDS to existing routers; a changed roster
  // means some other stage (node addition) ran — not replayable here.
  if (pre.routers.size() != post.routers.size() ||
      configs.routers.size() != pre.routers.size() ||
      configs.hosts.size() != pre.hosts.size() ||
      post.hosts.size() != pre.hosts.size()) {
    return false;
  }

  // Verify-then-apply in two passes so a failed check leaves `configs`
  // untouched for the from-scratch fallback. The captured run's devices
  // must sit at the same positions in `configs`: the grafted outcome is in
  // node ids, which follow device order.
  for (std::size_t i = 0; i < pre.hosts.size(); ++i) {
    if (pre.hosts[i].hostname != configs.hosts[i].hostname ||
        post.hosts[i].hostname != configs.hosts[i].hostname) {
      return false;
    }
  }
  for (std::size_t i = 0; i < pre.routers.size(); ++i) {
    const RouterConfig& before = pre.routers[i];
    const RouterConfig& after = post.routers[i];
    const RouterConfig& current = configs.routers[i];
    if (before.hostname != after.hostname ||
        before.hostname != current.hostname) {
      return false;
    }
    // Containers the stage appends to: current must still start where the
    // captured run started.
    if (current.interfaces.size() != before.interfaces.size() ||
        after.interfaces.size() < before.interfaces.size()) {
      return false;
    }
    // Containers the stage never touches: any drift means the snapshot is
    // not from the assumed stage shape.
    if (after.prefix_lists.size() != before.prefix_lists.size() ||
        after.access_lists.size() != before.access_lists.size() ||
        after.static_routes.size() != before.static_routes.size() ||
        after.extra_lines.size() != before.extra_lines.size()) {
      return false;
    }
    if (before.ospf.has_value() != after.ospf.has_value() ||
        before.rip.has_value() != after.rip.has_value() ||
        before.bgp.has_value() != after.bgp.has_value() ||
        before.ospf.has_value() != current.ospf.has_value() ||
        before.rip.has_value() != current.rip.has_value() ||
        before.bgp.has_value() != current.bgp.has_value()) {
      return false;
    }
    if (before.ospf &&
        after.ospf->networks.size() < before.ospf->networks.size()) {
      return false;
    }
    if (before.rip &&
        after.rip->networks.size() < before.rip->networks.size()) {
      return false;
    }
    if (before.bgp &&
        after.bgp->neighbors.size() < before.bgp->neighbors.size()) {
      return false;
    }
    if (after.interfaces.size() > before.interfaces.size()) {
      // Fake interfaces clone the first real interface's passthrough lines
      // (materialize_fake_link); those lines are on the filter-only edit
      // surface, so an edit there makes the captured clone stale.
      if (before.interfaces.empty() ||
          before.interfaces.front().extra_lines !=
              current.interfaces.front().extra_lines) {
        return false;
      }
    }
  }

  for (std::size_t i = 0; i < pre.routers.size(); ++i) {
    const RouterConfig& before = pre.routers[i];
    const RouterConfig& after = post.routers[i];
    RouterConfig& current = configs.routers[i];
    current.interfaces.insert(
        current.interfaces.end(),
        after.interfaces.begin() +
            static_cast<std::ptrdiff_t>(before.interfaces.size()),
        after.interfaces.end());
    if (before.ospf) {
      current.ospf->networks.insert(
          current.ospf->networks.end(),
          after.ospf->networks.begin() +
              static_cast<std::ptrdiff_t>(before.ospf->networks.size()),
          after.ospf->networks.end());
    }
    if (before.rip) {
      current.rip->networks.insert(
          current.rip->networks.end(),
          after.rip->networks.begin() +
              static_cast<std::ptrdiff_t>(before.rip->networks.size()),
          after.rip->networks.end());
    }
    if (before.bgp) {
      current.bgp->neighbors.insert(
          current.bgp->neighbors.end(),
          after.bgp->neighbors.begin() +
              static_cast<std::ptrdiff_t>(before.bgp->neighbors.size()),
          after.bgp->neighbors.end());
    }
  }

  rng = topo.rng;
  allocator = topo.allocator;
  outcome = topo.outcome;
  return true;
}

}  // namespace confmask
