#include "src/routing/flat_topology.hpp"

#include <algorithm>

namespace confmask {

namespace {

constexpr int kDefaultOspfCost = 10;

// Interned slot of a router's named interface: base + index in the config's
// interface vector (find_interface returns the first name match, so slots
// are as stable as the lookups they replace). -1 when the name is unknown.
std::int32_t slot_of(const std::vector<std::int32_t>& iface_base, int router,
                     const RouterConfig& config, const std::string& name) {
  const InterfaceConfig* iface = config.find_interface(name);
  if (iface == nullptr) return -1;
  return iface_base[static_cast<std::size_t>(router)] +
         static_cast<std::int32_t>(iface - config.interfaces.data());
}

}  // namespace

FlatTopology FlatTopology::build(const Topology& topo,
                                 const ConfigSet& configs) {
  FlatTopology flat;
  const int n = topo.router_count();
  const int nodes = topo.node_count();
  const auto& links = topo.links();

  // --- interface interning ---
  flat.iface_base_.resize(static_cast<std::size_t>(n) + 1);
  std::int32_t slot = 0;
  for (int r = 0; r < n; ++r) {
    flat.iface_base_[static_cast<std::size_t>(r)] = slot;
    const auto& config = configs.routers[static_cast<std::size_t>(
        topo.node(r).config_index)];
    slot += static_cast<std::int32_t>(config.interfaces.size());
  }
  flat.iface_base_[static_cast<std::size_t>(n)] = slot;

  // --- per-router AS + dense AS index ---
  flat.router_as_.assign(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const auto& config = configs.routers[static_cast<std::size_t>(
        topo.node(r).config_index)];
    if (config.bgp) flat.router_as_[static_cast<std::size_t>(r)] =
        config.bgp->local_as;
  }
  std::vector<std::int32_t> distinct_as;
  for (const std::int32_t as : flat.router_as_) {
    if (as >= 0) distinct_as.push_back(as);
  }
  std::sort(distinct_as.begin(), distinct_as.end());
  distinct_as.erase(std::unique(distinct_as.begin(), distinct_as.end()),
                    distinct_as.end());
  flat.as_count_ = static_cast<std::int32_t>(distinct_as.size());
  flat.as_index_.assign(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const std::int32_t as = flat.router_as_[static_cast<std::size_t>(r)];
    if (as < 0) continue;
    flat.as_index_[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(
        std::lower_bound(distinct_as.begin(), distinct_as.end(), as) -
        distinct_as.begin());
  }

  // --- per-link SoA: protocol classification + eBGP session discovery ---
  // (the same pass the old Simulation::index_protocols ran per build; here
  // it runs once per topology because none of these inputs are editable by
  // the anonymizer's incremental filter rounds).
  const std::size_t link_count = links.size();
  // Flags and per-side costs feed only the half-edges built below.
  std::vector<std::uint8_t> link_flags(link_count, 0);
  std::vector<std::int32_t> cost_ab(link_count, 0);
  std::vector<std::int32_t> cost_ba(link_count, 0);
  flat.l_node_a_.resize(link_count);
  flat.l_node_b_.resize(link_count);
  flat.l_iface_a_.assign(link_count, -1);
  flat.l_iface_b_.assign(link_count, -1);
  for (std::size_t l = 0; l < link_count; ++l) {
    const Link& link = links[l];
    flat.l_node_a_[l] = link.a.node;
    flat.l_node_b_[l] = link.b.node;
    // Router-side interface slots are interned even on host links: a
    // gateway's host-facing interface can carry an inbound ACL.
    if (topo.is_router(link.a.node)) {
      flat.l_iface_a_[l] = slot_of(
          flat.iface_base_, link.a.node,
          configs.routers[static_cast<std::size_t>(
              topo.node(link.a.node).config_index)],
          link.a.interface);
    }
    if (topo.is_router(link.b.node)) {
      flat.l_iface_b_[l] = slot_of(
          flat.iface_base_, link.b.node,
          configs.routers[static_cast<std::size_t>(
              topo.node(link.b.node).config_index)],
          link.b.interface);
    }
    if (!topo.is_router(link.a.node) || !topo.is_router(link.b.node)) {
      continue;  // host attachment, not a routing adjacency
    }
    const auto& ra = configs.routers[static_cast<std::size_t>(
        topo.node(link.a.node).config_index)];
    const auto& rb = configs.routers[static_cast<std::size_t>(
        topo.node(link.b.node).config_index)];
    const auto* ia = ra.find_interface(link.a.interface);
    const auto* ib = rb.find_interface(link.b.interface);
    std::uint8_t flags = 0;
    const bool intra_as = flat.router_as_[static_cast<std::size_t>(
                              link.a.node)] ==
                          flat.router_as_[static_cast<std::size_t>(
                              link.b.node)];
    if (intra_as) flags |= kIntraAs;
    if (ia != nullptr && ib != nullptr) {
      cost_ab[l] = ia->ospf_cost.value_or(kDefaultOspfCost);
      cost_ba[l] = ib->ospf_cost.value_or(kDefaultOspfCost);
      if (intra_as && ra.ospf && rb.ospf && ra.ospf->covers(*ia->address) &&
          rb.ospf->covers(*ib->address)) {
        flags |= kOspf;
      }
      if (intra_as && ra.rip && rb.rip && ra.rip->covers(*ia->address) &&
          rb.rip->covers(*ib->address)) {
        flags |= kRip;
      }
    }
    link_flags[l] = flags;
    // eBGP session discovery: reciprocal neighbor statements across an
    // inter-AS link.
    if (!intra_as && ra.bgp && rb.bgp && ia != nullptr && ib != nullptr) {
      const auto* nb_at_a = ra.bgp->find_neighbor(*ib->address);
      const auto* nb_at_b = rb.bgp->find_neighbor(*ia->address);
      if (nb_at_a != nullptr && nb_at_b != nullptr &&
          nb_at_a->remote_as == rb.bgp->local_as &&
          nb_at_b->remote_as == ra.bgp->local_as) {
        Session session;
        session.router_a = link.a.node;
        session.router_b = link.b.node;
        session.link = static_cast<std::int32_t>(l);
        session.peer_bits_at_a = ib->address->bits();
        session.peer_bits_at_b = ia->address->bits();
        flat.sessions_.push_back(session);
      }
    }
  }

  // --- border-router index ---
  flat.border_index_.assign(static_cast<std::size_t>(n), -1);
  for (const Session& session : flat.sessions_) {
    flat.border_routers_.push_back(session.router_a);
    flat.border_routers_.push_back(session.router_b);
  }
  std::sort(flat.border_routers_.begin(), flat.border_routers_.end());
  flat.border_routers_.erase(
      std::unique(flat.border_routers_.begin(), flat.border_routers_.end()),
      flat.border_routers_.end());
  for (std::size_t i = 0; i < flat.border_routers_.size(); ++i) {
    flat.border_index_[static_cast<std::size_t>(flat.border_routers_[i])] =
        static_cast<std::int32_t>(i);
  }

  // --- CSR half-edges, preserving links_of iteration order exactly (the
  // FIB push order, and therefore every downstream artifact byte, depends
  // on it) ---
  flat.offset_.resize(static_cast<std::size_t>(nodes) + 1);
  std::int32_t edges = 0;
  for (int u = 0; u < nodes; ++u) {
    flat.offset_[static_cast<std::size_t>(u)] = edges;
    edges += static_cast<std::int32_t>(topo.links_of(u).size());
  }
  flat.offset_[static_cast<std::size_t>(nodes)] = edges;
  const auto e = static_cast<std::size_t>(edges);
  flat.e_link_.resize(e);
  flat.e_target_.resize(e);
  flat.e_cost_out_.resize(e);
  flat.e_cost_in_.resize(e);
  flat.e_flags_.resize(e);
  flat.e_iface_.resize(e);
  flat.e_peer_iface_.resize(e);
  std::size_t cursor = 0;
  for (int u = 0; u < nodes; ++u) {
    for (const int link_id : topo.links_of(u)) {
      const auto l = static_cast<std::size_t>(link_id);
      const bool at_a = flat.l_node_a_[l] == u;
      flat.e_link_[cursor] = link_id;
      flat.e_target_[cursor] = at_a ? flat.l_node_b_[l] : flat.l_node_a_[l];
      flat.e_cost_out_[cursor] = at_a ? cost_ab[l] : cost_ba[l];
      flat.e_cost_in_[cursor] = at_a ? cost_ba[l] : cost_ab[l];
      flat.e_flags_[cursor] = link_flags[l];
      flat.e_iface_[cursor] = at_a ? flat.l_iface_a_[l] : flat.l_iface_b_[l];
      flat.e_peer_iface_[cursor] = at_a ? flat.l_iface_b_[l]
                                        : flat.l_iface_a_[l];
      ++cursor;
    }
  }

  // --- per-host routing facts ---
  const int hosts = topo.host_count();
  flat.host_prefix_.reserve(static_cast<std::size_t>(hosts));
  flat.host_address_.reserve(static_cast<std::size_t>(hosts));
  flat.host_gateway_.resize(static_cast<std::size_t>(hosts));
  flat.host_gateway_link_.assign(static_cast<std::size_t>(hosts), -1);
  flat.host_route_.assign(static_cast<std::size_t>(hosts), HostRoute::kNone);
  flat.host_bgp_advertised_.assign(static_cast<std::size_t>(hosts), 0);
  for (int h = 0; h < hosts; ++h) {
    const int node = n + h;
    const auto& host_config = configs.hosts[static_cast<std::size_t>(
        topo.node(node).config_index)];
    flat.host_prefix_.push_back(host_config.prefix());
    flat.host_address_.push_back(host_config.address);
    const int gateway = topo.gateway_of(node);
    flat.host_gateway_[static_cast<std::size_t>(h)] = gateway;
    if (gateway < 0) continue;
    for (const int link_id : topo.links_of(node)) {
      if (links[static_cast<std::size_t>(link_id)].other_end(node).node ==
          gateway) {
        flat.host_gateway_link_[static_cast<std::size_t>(h)] = link_id;
        break;
      }
    }
    const auto& gw_config = configs.routers[static_cast<std::size_t>(
        topo.node(gateway).config_index)];
    if (gw_config.ospf && gw_config.ospf->covers(host_config.address)) {
      flat.host_route_[static_cast<std::size_t>(h)] = HostRoute::kOspf;
    } else if (gw_config.rip && gw_config.rip->covers(host_config.address)) {
      flat.host_route_[static_cast<std::size_t>(h)] = HostRoute::kRip;
    }
    if (gw_config.bgp &&
        std::any_of(gw_config.bgp->networks.begin(),
                    gw_config.bgp->networks.end(),
                    [&](const Ipv4Prefix& network) {
                      return network.contains(host_config.address);
                    })) {
      flat.host_bgp_advertised_[static_cast<std::size_t>(h)] = 1;
    }
  }

  // --- static-route placement ---
  for (int r = 0; r < n; ++r) {
    const auto& config = configs.routers[static_cast<std::size_t>(
        topo.node(r).config_index)];
    if (!config.static_routes.empty()) flat.static_routers_.push_back(r);
  }

  return flat;
}

}  // namespace confmask
