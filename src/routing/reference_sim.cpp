#include "src/routing/reference_sim.hpp"

#include <algorithm>
#include <limits>

namespace confmask {

namespace {

constexpr long kUnreachable = std::numeric_limits<long>::max() / 4;
constexpr int kDefaultOspfCost = 10;

}  // namespace

ReferenceSimulation::ReferenceSimulation(const ConfigSet& configs)
    : configs_(&configs), topology_(Topology::build(configs)) {
  fib_.resize(static_cast<std::size_t>(topology_.router_count()) *
              static_cast<std::size_t>(topology_.host_count()));

  // Classify every router-router link. An IGP adjacency needs both ends in
  // the same AS with addressed interfaces whose protocol processes cover
  // the link; an eBGP session needs reciprocal neighbor statements with
  // matching remote-as values across an inter-AS link.
  adjacency_.assign(topology_.links().size(), Adjacency{});
  for (std::size_t l = 0; l < topology_.links().size(); ++l) {
    const Link& link = topology_.link(static_cast<int>(l));
    if (!topology_.is_router(link.a.node) || !topology_.is_router(link.b.node)) {
      continue;
    }
    const RouterConfig& ra = router_config(link.a.node);
    const RouterConfig& rb = router_config(link.b.node);
    const InterfaceConfig* ia = ra.find_interface(link.a.interface);
    const InterfaceConfig* ib = rb.find_interface(link.b.interface);
    Adjacency& adj = adjacency_[l];
    adj.same_as = as_of(link.a.node) == as_of(link.b.node);
    if (ia != nullptr && ib != nullptr) {
      adj.cost_from_a = ia->ospf_cost.value_or(kDefaultOspfCost);
      adj.cost_from_b = ib->ospf_cost.value_or(kDefaultOspfCost);
      if (adj.same_as && ra.ospf && rb.ospf && ra.ospf->covers(*ia->address) &&
          rb.ospf->covers(*ib->address)) {
        adj.ospf = true;
      }
      if (adj.same_as && ra.rip && rb.rip && ra.rip->covers(*ia->address) &&
          rb.rip->covers(*ib->address)) {
        adj.rip = true;
      }
      if (!adj.same_as && ra.bgp && rb.bgp) {
        const BgpNeighbor* at_a = ra.bgp->find_neighbor(*ib->address);
        const BgpNeighbor* at_b = rb.bgp->find_neighbor(*ia->address);
        if (at_a != nullptr && at_b != nullptr &&
            at_a->remote_as == rb.bgp->local_as &&
            at_b->remote_as == ra.bgp->local_as) {
          sessions_.push_back(
              BgpSession{link.a.node, link.b.node, static_cast<int>(l)});
        }
      }
    }
  }

  // Intra-AS IGP distances for hot-potato egress selection: per-source
  // Bellman-Ford over the IGP adjacencies, relaxed to a fixpoint.
  const int n = topology_.router_count();
  igp_dist_.assign(static_cast<std::size_t>(n), {});
  for (int src = 0; src < n; ++src) {
    auto& dist = igp_dist_[static_cast<std::size_t>(src)];
    dist.assign(static_cast<std::size_t>(n), kUnreachable);
    dist[static_cast<std::size_t>(src)] = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t l = 0; l < topology_.links().size(); ++l) {
        const Adjacency& adj = adjacency_[l];
        if (!adj.ospf && !adj.rip) continue;
        const Link& link = topology_.link(static_cast<int>(l));
        const auto relax = [&](int from, int to, long step) {
          const auto f = static_cast<std::size_t>(from);
          const auto t = static_cast<std::size_t>(to);
          if (dist[f] >= kUnreachable) return;
          if (dist[f] + step < dist[t]) {
            dist[t] = dist[f] + step;
            changed = true;
          }
        };
        // dist is measured FROM src, so relaxation follows the forwarding
        // direction: leaving `from` costs `from`'s outgoing metric.
        relax(link.a.node, link.b.node, adj.ospf ? adj.cost_from_a : 1);
        relax(link.b.node, link.a.node, adj.ospf ? adj.cost_from_b : 1);
      }
    }
  }

  for (const int host : topology_.host_ids()) converge_destination(host);
}

const RouterConfig& ReferenceSimulation::router_config(int node) const {
  return configs_->routers[static_cast<std::size_t>(
      topology_.node(node).config_index)];
}

const HostConfig& ReferenceSimulation::host_config(int node) const {
  return configs_->hosts[static_cast<std::size_t>(
      topology_.node(node).config_index)];
}

int ReferenceSimulation::as_of(int router) const {
  const RouterConfig& config = router_config(router);
  return config.bgp ? config.bgp->local_as : -1;
}

std::vector<ReferenceSimulation::Hop>& ReferenceSimulation::slot(int router,
                                                                 int host) {
  return fib_[static_cast<std::size_t>(router) *
                  static_cast<std::size_t>(topology_.host_count()) +
              static_cast<std::size_t>(host - topology_.router_count())];
}

const std::vector<ReferenceSimulation::Hop>& ReferenceSimulation::fib(
    int router, int host) const {
  if (!topology_.is_router(router) || topology_.is_router(host)) {
    return no_route_;
  }
  return const_cast<ReferenceSimulation*>(this)->slot(router, host);
}

bool ReferenceSimulation::igp_denies(int router, const std::string& interface,
                                     const Ipv4Prefix& dest) const {
  const RouterConfig& config = router_config(router);
  const auto denied_by = [&](const std::vector<DistributeList>& lists) {
    for (const DistributeList& dl : lists) {
      if (dl.interface != interface) continue;
      for (const PrefixList& pl : config.prefix_lists) {
        if (pl.name == dl.prefix_list && !pl.permits(dest)) return true;
      }
    }
    return false;
  };
  if (config.ospf && denied_by(config.ospf->distribute_lists)) return true;
  if (config.rip && denied_by(config.rip->distribute_lists)) return true;
  return false;
}

bool ReferenceSimulation::bgp_denies(int router, Ipv4Address peer,
                                     const Ipv4Prefix& dest) const {
  const RouterConfig& config = router_config(router);
  if (!config.bgp) return false;
  for (const BgpNeighbor& neighbor : config.bgp->neighbors) {
    if (neighbor.address != peer) continue;
    for (const std::string& name : neighbor.prefix_lists_in) {
      for (const PrefixList& pl : config.prefix_lists) {
        if (pl.name == name && !pl.permits(dest)) return true;
      }
    }
  }
  return false;
}

bool ReferenceSimulation::acl_drops(int router, const std::string& interface,
                                    const Ipv4Prefix& src,
                                    const Ipv4Prefix& dst) const {
  const RouterConfig& config = router_config(router);
  const InterfaceConfig* iface = config.find_interface(interface);
  if (iface == nullptr || !iface->access_group_in) return false;
  const AccessList* acl = config.find_access_list(*iface->access_group_in);
  if (acl == nullptr) return false;  // dangling binding: no filter
  return !acl->permits(src, dst);
}

void ReferenceSimulation::converge_destination(int host) {
  const int gateway = topology_.gateway_of(host);
  if (gateway < 0) return;
  const HostConfig& hc = host_config(host);
  const Ipv4Prefix dest = hc.prefix();
  const int n = topology_.router_count();

  // Connected delivery at the gateway (never filtered).
  for (const int link_id : topology_.links_of(host)) {
    const Link& link = topology_.link(link_id);
    if (link.other_end(host).node == gateway) {
      slot(gateway, host).push_back(Hop{link_id, host});
      break;
    }
  }

  const RouterConfig& gw = router_config(gateway);
  const bool in_ospf = gw.ospf && gw.ospf->covers(hc.address);
  const bool in_rip = !in_ospf && gw.rip && gw.rip->covers(hc.address);

  if (in_ospf || in_rip) {
    // Distance towards the gateway by Bellman-Ford to a fixpoint. OSPF
    // distances ignore filters entirely (RIB-install-time semantics); RIP
    // filters gate the relaxation itself (advertisement-import semantics:
    // a router that rejects the route never learns — or re-advertises — it
    // through that interface).
    std::vector<long> dist(static_cast<std::size_t>(n), kUnreachable);
    dist[static_cast<std::size_t>(gateway)] = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t l = 0; l < topology_.links().size(); ++l) {
        const Adjacency& adj = adjacency_[l];
        if (in_ospf ? !adj.ospf : !adj.rip) continue;
        const Link& link = topology_.link(static_cast<int>(l));
        // dist is towards the gateway, so the edge cost is the LEARNING
        // side's outgoing metric: learner -> advertiser.
        const auto relax = [&](int advertiser, int learner, long step,
                               const std::string& learner_iface) {
          const auto a = static_cast<std::size_t>(advertiser);
          const auto b = static_cast<std::size_t>(learner);
          if (dist[a] >= kUnreachable) return;
          if (in_rip && igp_denies(learner, learner_iface, dest)) return;
          if (dist[a] + step < dist[b]) {
            dist[b] = dist[a] + step;
            changed = true;
          }
        };
        relax(link.a.node, link.b.node,
              in_ospf ? adj.cost_from_b : 1, link.b.interface);
        relax(link.b.node, link.a.node,
              in_ospf ? adj.cost_from_a : 1, link.a.interface);
      }
    }

    // Install every equal-cost next hop not denied by a filter on the
    // learning interface.
    for (int r = 0; r < n; ++r) {
      if (r == gateway || dist[static_cast<std::size_t>(r)] >= kUnreachable) {
        continue;
      }
      std::vector<Hop> hops;
      for (const int link_id : topology_.links_of(r)) {
        const Adjacency& adj = adjacency_[static_cast<std::size_t>(link_id)];
        if (in_ospf ? !adj.ospf : !adj.rip) continue;
        const Link& link = topology_.link(link_id);
        const int w = link.other_end(r).node;
        const long step =
            in_ospf ? (link.a.node == r ? adj.cost_from_a : adj.cost_from_b)
                    : 1;
        if (dist[static_cast<std::size_t>(w)] + step !=
            dist[static_cast<std::size_t>(r)]) {
          continue;
        }
        if (igp_denies(r, link.end_of(r).interface, dest)) continue;
        hops.push_back(Hop{link_id, w});
      }
      std::sort(hops.begin(), hops.end());
      slot(r, host) = std::move(hops);
    }
  }

  converge_bgp(host, gateway, dest);
  apply_static_routes(host, gateway, dest);
}

void ReferenceSimulation::converge_bgp(int host, int gateway,
                                       const Ipv4Prefix& dest) {
  const int origin_as = as_of(gateway);
  if (origin_as < 0 || sessions_.empty()) return;
  const RouterConfig& gw = router_config(gateway);
  const HostConfig& hc = host_config(host);
  bool advertised = false;
  for (const Ipv4Prefix& network : gw.bgp->networks) {
    if (network.contains(hc.address)) {
      advertised = true;
      break;
    }
  }
  if (!advertised) return;

  // AS-level shortest path, honoring per-session inbound filters, relaxed
  // to a fixpoint.
  std::map<int, long> as_dist;
  as_dist[origin_as] = 0;
  const auto dist_of = [&](int as) {
    const auto it = as_dist.find(as);
    return it == as_dist.end() ? kUnreachable : it->second;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const BgpSession& session : sessions_) {
      const Link& link = topology_.link(session.link);
      const auto import = [&](int importer, int exporter) {
        if (dist_of(as_of(exporter)) >= kUnreachable) return;
        if (bgp_denies(importer, link.end_of(exporter).address, dest)) return;
        const long cand = dist_of(as_of(exporter)) + 1;
        if (cand < dist_of(as_of(importer))) {
          as_dist[as_of(importer)] = cand;
          changed = true;
        }
      };
      import(session.router_a, session.router_b);
      import(session.router_b, session.router_a);
    }
  }

  const int n = topology_.router_count();
  for (int r = 0; r < n; ++r) {
    const int my_as = as_of(r);
    if (my_as < 0 || my_as == origin_as) continue;
    if (dist_of(my_as) >= kUnreachable) continue;

    // Hot-potato egress: among sessions on a shortest AS path whose border
    // is in my AS and whose import is permitted, pick the lowest IGP
    // distance; break ties by lowest border id, then lowest session link.
    int best_border = -1;
    int best_link = -1;
    long best_igp = kUnreachable;
    for (const BgpSession& session : sessions_) {
      const Link& link = topology_.link(session.link);
      const auto consider = [&](int border, int peer) {
        if (as_of(border) != my_as) return;
        if (dist_of(as_of(peer)) + 1 != dist_of(my_as)) return;
        if (bgp_denies(border, link.end_of(peer).address, dest)) return;
        const long igp = igp_dist_[static_cast<std::size_t>(r)]
                                  [static_cast<std::size_t>(border)];
        if (igp >= kUnreachable) return;
        if (igp < best_igp ||
            (igp == best_igp &&
             (border < best_border ||
              (border == best_border && session.link < best_link)))) {
          best_igp = igp;
          best_border = border;
          best_link = session.link;
        }
      };
      consider(session.router_a, session.router_b);
      consider(session.router_b, session.router_a);
    }
    if (best_border < 0) continue;

    std::vector<Hop>& out = slot(r, host);
    if (r == best_border) {
      const Link& link = topology_.link(best_link);
      out.push_back(Hop{best_link, link.other_end(r).node});
      continue;
    }
    // Internal transit towards the chosen border along IGP shortest paths,
    // gated by IGP filters for this destination.
    for (const int link_id : topology_.links_of(r)) {
      const Adjacency& adj = adjacency_[static_cast<std::size_t>(link_id)];
      if (!adj.ospf && !adj.rip) continue;
      const Link& link = topology_.link(link_id);
      const int w = link.other_end(r).node;
      const long step =
          adj.ospf ? (link.a.node == r ? adj.cost_from_a : adj.cost_from_b)
                   : 1;
      if (igp_dist_[static_cast<std::size_t>(w)]
                   [static_cast<std::size_t>(best_border)] +
              step !=
          igp_dist_[static_cast<std::size_t>(r)]
                   [static_cast<std::size_t>(best_border)]) {
        continue;
      }
      if (igp_denies(r, link.end_of(r).interface, dest)) continue;
      out.push_back(Hop{link_id, w});
    }
    std::sort(out.begin(), out.end());
  }
}

void ReferenceSimulation::apply_static_routes(int host, int gateway,
                                              const Ipv4Prefix& dest) {
  const HostConfig& hc = host_config(host);
  const int n = topology_.router_count();
  for (int r = 0; r < n; ++r) {
    if (r == gateway) continue;  // connected delivery always wins
    const RouterConfig& config = router_config(r);
    const StaticRoute* best = nullptr;
    for (const StaticRoute& route : config.static_routes) {
      if (!route.prefix.contains(hc.address)) continue;
      if (best == nullptr || route.prefix.length() > best->prefix.length()) {
        best = &route;
      }
    }
    if (best == nullptr) continue;
    std::vector<Hop>& out = slot(r, host);
    // Administrative distance 1: the static wins unless the protocol route
    // is strictly longer.
    if (!out.empty() && best->prefix.length() < dest.length()) continue;
    int resolved_link = -1;
    int resolved_neighbor = -1;
    for (const int link_id : topology_.links_of(r)) {
      const LinkEnd& far = topology_.link(link_id).other_end(r);
      if (far.address == best->next_hop) {
        resolved_link = link_id;
        resolved_neighbor = far.node;
        break;
      }
    }
    if (resolved_link < 0) continue;  // unresolvable: keep the RIB route
    out.clear();
    out.push_back(Hop{resolved_link, resolved_neighbor});
  }
}

void ReferenceSimulation::walk(int router, int dst_host,
                               const Ipv4Prefix* src, const Ipv4Prefix& dst,
                               std::vector<int>& trail,
                               std::vector<std::vector<int>>& out,
                               bool& truncated) const {
  // Depth = routers visited past the first; the caps and their placement
  // mirror the shared enumeration contract.
  if (static_cast<int>(trail.size()) - 2 > kMaxPathDepth ||
      out.size() >= kMaxPathsPerFlow) {
    truncated = true;
    return;
  }
  for (const Hop& hop : fib(router, dst_host)) {
    if (hop.neighbor == dst_host) {
      std::vector<int> complete = trail;
      complete.push_back(dst_host);
      out.push_back(std::move(complete));
      continue;
    }
    if (!topology_.is_router(hop.neighbor)) continue;
    if (std::find(trail.begin(), trail.end(), hop.neighbor) != trail.end()) {
      continue;  // forwarding loop
    }
    const Link& link = topology_.link(hop.link);
    if (src != nullptr &&
        acl_drops(hop.neighbor, link.end_of(hop.neighbor).interface, *src,
                  dst)) {
      continue;  // inbound packet filter: a data-plane black hole
    }
    trail.push_back(hop.neighbor);
    walk(hop.neighbor, dst_host, src, dst, trail, out, truncated);
    trail.pop_back();
  }
}

DataPlane ReferenceSimulation::extract_data_plane() const {
  DataPlane dp;
  last_extraction_truncated_ = false;
  const auto& hosts = topology_.host_ids();
  for (const int src : hosts) {
    const int gateway = topology_.gateway_of(src);
    if (gateway < 0) continue;
    const Ipv4Prefix src_prefix = host_config(src).prefix();
    for (const int dst : hosts) {
      if (src == dst) continue;
      const Ipv4Prefix dst_prefix = host_config(dst).prefix();
      // The gateway's host-facing interface may itself filter inbound.
      bool dropped_at_gateway = false;
      for (const int link_id : topology_.links_of(src)) {
        const Link& link = topology_.link(link_id);
        if (link.other_end(src).node != gateway) continue;
        if (acl_drops(gateway, link.end_of(gateway).interface, src_prefix,
                      dst_prefix)) {
          dropped_at_gateway = true;
        }
      }
      if (dropped_at_gateway) continue;

      std::vector<int> trail{src, gateway};
      std::vector<std::vector<int>> node_paths;
      bool truncated = false;
      walk(gateway, dst, &src_prefix, dst_prefix, trail, node_paths,
           truncated);
      if (truncated) last_extraction_truncated_ = true;
      if (node_paths.empty()) continue;

      std::vector<Path> named;
      named.reserve(node_paths.size());
      for (const auto& node_path : node_paths) {
        Path path;
        path.reserve(node_path.size());
        for (const int node : node_path) {
          path.push_back(topology_.node(node).name);
        }
        named.push_back(std::move(path));
      }
      std::sort(named.begin(), named.end());
      named.erase(std::unique(named.begin(), named.end()), named.end());
      dp.flows.emplace(
          FlowKey{topology_.node(src).name, topology_.node(dst).name},
          std::move(named));
    }
  }
  return dp;
}

}  // namespace confmask
