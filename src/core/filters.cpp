#include "src/core/filters.hpp"

#include <algorithm>

namespace confmask {

namespace {

bool is_permit_all(const PrefixListEntry& entry) {
  return entry.permit && entry.prefix == Ipv4Prefix{Ipv4Address{0u}, 0} &&
         entry.le == 32;
}

/// Packs a prefix into one sortable key.
std::uint64_t prefix_key(const Ipv4Prefix& prefix) {
  return std::uint64_t{prefix.network().bits()} << 8 |
         static_cast<std::uint64_t>(prefix.length());
}

/// (router, index) as one map key.
std::uint64_t pair_key(int a, int b) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32 |
         static_cast<std::uint32_t>(b);
}

bool remove_deny(PrefixList& list, const Ipv4Prefix& dest) {
  const auto before = list.entries.size();
  std::erase_if(list.entries, [&](const PrefixListEntry& entry) {
    return !entry.permit && entry.prefix == dest;
  });
  return list.entries.size() != before;
}

/// True if the scope is a BGP session (the far-end address is a configured
/// BGP neighbor of the router).
bool is_bgp_scope(const RouterConfig& router, Ipv4Address peer) {
  return router.bgp && router.bgp->find_neighbor(peer) != nullptr;
}

void bind_igp(RouterConfig& router, const std::string& list_name,
              const std::string& interface) {
  const auto bind = [&](std::vector<DistributeList>& lists) {
    for (const auto& dl : lists) {
      if (dl.prefix_list == list_name && dl.interface == interface) return;
    }
    lists.push_back(DistributeList{list_name, interface});
  };
  if (router.ospf) bind(router.ospf->distribute_lists);
  if (router.rip) bind(router.rip->distribute_lists);
}

void bind_bgp(RouterConfig& router, const std::string& list_name,
              Ipv4Address peer) {
  auto* neighbor = router.bgp->find_neighbor(peer);
  if (std::find(neighbor->prefix_lists_in.begin(),
                neighbor->prefix_lists_in.end(),
                list_name) == neighbor->prefix_lists_in.end()) {
    neighbor->prefix_lists_in.push_back(list_name);
  }
}

}  // namespace

std::string igp_filter_name(const std::string& interface) {
  return "CMF_" + interface;
}

std::string bgp_filter_name(Ipv4Address peer) {
  std::string name = "CMFB_" + peer.str();
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

std::vector<RouterConfig*> router_configs(ConfigSet& configs,
                                          const Topology& topo) {
  std::vector<RouterConfig*> table(
      static_cast<std::size_t>(topo.router_count()), nullptr);
  for (auto& router : configs.routers) {
    const int node = topo.find_node(router.hostname);
    if (node >= 0 && node < topo.router_count() &&
        table[static_cast<std::size_t>(node)] == nullptr) {
      table[static_cast<std::size_t>(node)] = &router;
    }
  }
  return table;
}

FilterEditor::FilterEditor(ConfigSet& configs, const Topology& topo)
    : topo_(topo), routers_(router_configs(configs, topo)) {}

FilterEditor::Scope& FilterEditor::scope(int router, int link) {
  const auto [it, inserted] = scopes_.try_emplace(pair_key(router, link));
  Scope& scope = it->second;
  if (!inserted) return scope;
  const RouterConfig& config = *routers_[static_cast<std::size_t>(router)];
  const Link& edge = topo_.link(link);
  const LinkEnd& far = edge.other_end(router);
  scope.bgp = is_bgp_scope(config, far.address);
  scope.addable = scope.bgp || config.ospf || config.rip;
  scope.list_name = scope.bgp ? bgp_filter_name(far.address)
                              : igp_filter_name(edge.end_of(router).interface);
  return scope;
}

/// One pass over a list the editor has not tracked yet (or since a
/// remove).
FilterEditor::ListState FilterEditor::scan_list(const PrefixList& list) {
  ListState state;
  int permit_alls = 0;
  for (const PrefixListEntry& entry : list.entries) {
    if (is_permit_all(entry)) {
      ++permit_alls;
      continue;
    }
    state.last_seq = std::max(state.last_seq, entry.seq);
    if (!entry.permit) state.denies.push_back(prefix_key(entry.prefix));
  }
  std::sort(state.denies.begin(), state.denies.end());
  state.permit_all_last =
      permit_alls == 1 && is_permit_all(list.entries.back());
  return state;
}

bool FilterEditor::add(int router, int link, const Ipv4Prefix& dest) {
  RouterConfig* config = routers_[static_cast<std::size_t>(router)];
  if (config == nullptr) return false;
  Scope& entry = scope(router, link);
  if (!entry.addable) return false;
  if (entry.list < 0) {
    const PrefixList& list = config->ensure_prefix_list(entry.list_name);
    entry.list = static_cast<int>(&list - config->prefix_lists.data());
  }
  PrefixList& list = config->prefix_lists[static_cast<std::size_t>(entry.list)];
  const auto [state_it, untracked] =
      lists_.try_emplace(pair_key(router, entry.list));
  ListState& state = state_it->second;
  if (untracked) state = scan_list(list);
  const std::uint64_t key = prefix_key(dest);
  const auto at =
      std::lower_bound(state.denies.begin(), state.denies.end(), key);
  if (at != state.denies.end() && *at == key) return false;
  state.denies.insert(at, key);
  // The deny goes last at the next seq, then a fresh permit-all behind it
  // at the seq after, in place of every permit-all the list held.
  if (state.permit_all_last) {
    list.entries.pop_back();
  } else {
    std::erase_if(list.entries, is_permit_all);
  }
  state.last_seq += 5;
  list.entries.push_back(PrefixListEntry{state.last_seq, /*permit=*/false,
                                         dest, std::nullopt, std::nullopt});
  list.entries.push_back(PrefixListEntry{state.last_seq + 5, /*permit=*/true,
                                         Ipv4Prefix{Ipv4Address{0u}, 0}, 32,
                                         std::nullopt});
  state.permit_all_last = true;
  if (!entry.bound) {
    const Link& edge = topo_.link(link);
    if (entry.bgp) {
      bind_bgp(*config, entry.list_name, edge.other_end(router).address);
    } else {
      bind_igp(*config, entry.list_name, edge.end_of(router).interface);
    }
    entry.bound = true;
  }
  return true;
}

bool FilterEditor::remove(int router, int link, const Ipv4Prefix& dest) {
  RouterConfig* config = routers_[static_cast<std::size_t>(router)];
  if (config == nullptr) return false;
  Scope& entry = scope(router, link);
  if (entry.list < 0) {
    const PrefixList* list = config->find_prefix_list(entry.list_name);
    if (list == nullptr) return false;
    entry.list = static_cast<int>(list - config->prefix_lists.data());
  }
  if (!remove_deny(config->prefix_lists[static_cast<std::size_t>(entry.list)],
                   dest)) {
    return false;
  }
  lists_.erase(pair_key(router, entry.list));
  return true;
}

}  // namespace confmask
