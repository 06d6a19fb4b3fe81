#include "src/routing/topology.hpp"

#include <algorithm>
#include <map>

namespace confmask {

namespace {

struct Endpoint {
  int node;
  std::string interface;
  Ipv4Address address;
};

}  // namespace

Topology Topology::build(const ConfigSet& configs) {
  Topology topo;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    topo.nodes_.push_back(TopologyNode{NodeKind::kRouter,
                                       configs.routers[i].hostname,
                                       static_cast<int>(i)});
  }
  topo.router_count_ = static_cast<int>(topo.nodes_.size());
  for (std::size_t i = 0; i < configs.hosts.size(); ++i) {
    topo.nodes_.push_back(TopologyNode{NodeKind::kHost,
                                       configs.hosts[i].hostname,
                                       static_cast<int>(i)});
  }

  // Group all addressed, non-shutdown interfaces by their connected prefix.
  std::map<Ipv4Prefix, std::vector<Endpoint>> by_prefix;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    for (const auto& iface : configs.routers[i].interfaces) {
      if (!iface.address || iface.shutdown) continue;
      by_prefix[iface.prefix()].push_back(
          Endpoint{static_cast<int>(i), iface.name, *iface.address});
    }
  }
  for (std::size_t i = 0; i < configs.hosts.size(); ++i) {
    const auto& host = configs.hosts[i];
    by_prefix[host.prefix()].push_back(
        Endpoint{topo.router_count_ + static_cast<int>(i),
                 host.interface_name, host.address});
  }

  // Interfaces sharing a prefix are connected pairwise (a multi-access
  // segment with m members becomes an m-clique; evaluation networks only
  // use point-to-point /31s and two-member host LANs).
  for (const auto& [prefix, endpoints] : by_prefix) {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      for (std::size_t j = i + 1; j < endpoints.size(); ++j) {
        if (endpoints[i].node == endpoints[j].node) continue;
        topo.links_.push_back(Link{
            LinkEnd{endpoints[i].node, endpoints[i].interface,
                    endpoints[i].address},
            LinkEnd{endpoints[j].node, endpoints[j].interface,
                    endpoints[j].address},
            prefix});
      }
    }
  }

  topo.by_name_.reserve(topo.nodes_.size());
  for (std::size_t id = 0; id < topo.nodes_.size(); ++id) {
    topo.by_name_.emplace(topo.nodes_[id].name, static_cast<int>(id));
  }

  topo.host_ids_.reserve(configs.hosts.size());
  for (int i = topo.router_count_; i < topo.node_count(); ++i) {
    topo.host_ids_.push_back(i);
  }

  topo.incident_.resize(topo.nodes_.size());
  for (std::size_t l = 0; l < topo.links_.size(); ++l) {
    topo.incident_[static_cast<std::size_t>(topo.links_[l].a.node)].push_back(
        static_cast<int>(l));
    topo.incident_[static_cast<std::size_t>(topo.links_[l].b.node)].push_back(
        static_cast<int>(l));
  }
  return topo;
}

int Topology::find_node(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? -1 : it->second;
}

std::size_t Topology::router_link_count() const {
  return static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(), [&](const Link& link) {
        return is_router(link.a.node) && is_router(link.b.node);
      }));
}

Graph Topology::router_graph() const {
  Graph graph(router_count_);
  for (const auto& link : links_) {
    if (is_router(link.a.node) && is_router(link.b.node)) {
      graph.add_edge(link.a.node, link.b.node);
    }
  }
  return graph;
}

int Topology::gateway_of(int host) const {
  for (int link_id : links_of(host)) {
    const int other = link(link_id).other_end(host).node;
    if (is_router(other)) return other;
  }
  return -1;
}

}  // namespace confmask
