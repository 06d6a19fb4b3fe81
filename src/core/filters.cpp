#include "src/core/filters.hpp"

#include <algorithm>

namespace confmask {

namespace {

bool is_permit_all(const PrefixListEntry& entry) {
  return entry.permit && entry.prefix == Ipv4Prefix{Ipv4Address{0u}, 0} &&
         entry.le == 32;
}

/// Inserts a deny entry ahead of the terminal permit-all. Returns false if
/// the deny already exists.
bool add_deny_keeping_permit_all(PrefixList& list, const Ipv4Prefix& dest) {
  for (const auto& entry : list.entries) {
    if (!entry.permit && entry.prefix == dest) return false;
  }
  std::erase_if(list.entries, is_permit_all);
  list.add_deny(dest);
  list.add_permit_all();
  return true;
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

bool add_route_filter(RouterConfig* router, int router_node, const Link& link,
                      const Ipv4Prefix& dest) {
  if (router == nullptr) return false;
  const LinkEnd& mine = link.end_of(router_node);
  const LinkEnd& far = link.other_end(router_node);

  if (is_bgp_scope(*router, far.address)) {
    const auto name = bgp_filter_name(far.address);
    auto& list = router->ensure_prefix_list(name);
    if (!add_deny_keeping_permit_all(list, dest)) return false;
    bind_bgp(*router, name, far.address);
    return true;
  }
  if (router->ospf || router->rip) {
    const auto name = igp_filter_name(mine.interface);
    auto& list = router->ensure_prefix_list(name);
    if (!add_deny_keeping_permit_all(list, dest)) return false;
    bind_igp(*router, name, mine.interface);
    return true;
  }
  return false;
}

bool remove_route_filter(RouterConfig* router, int router_node,
                         const Link& link, const Ipv4Prefix& dest) {
  if (router == nullptr) return false;
  const LinkEnd& mine = link.end_of(router_node);
  const LinkEnd& far = link.other_end(router_node);

  const auto name = is_bgp_scope(*router, far.address)
                        ? bgp_filter_name(far.address)
                        : igp_filter_name(mine.interface);
  auto* list = router->find_prefix_list(name);
  return list != nullptr && remove_deny(*list, dest);
}

}  // namespace confmask
