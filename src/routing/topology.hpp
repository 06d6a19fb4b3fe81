// Device-level topology reconstruction from configuration files.
//
// This is the first thing both an adversary and the simulator do with a
// configuration set (paper §2.2): routers and hosts become nodes, and an
// edge is added wherever two interfaces on different devices share the same
// IP prefix. ConfMask's topology anonymization rests on this layer: a fake
// interface pair sharing a prefix becomes an edge exactly like a real one,
// so the graph alone cannot tell fake links from real ones. The emitted
// configuration text can: fake-link prefixes come from their own pool,
// fake interfaces are numbered from Ethernet100, and Algorithm 1's filters
// and the fake links' costs stand out (ROADMAP.md item 1).
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/config/model.hpp"
#include "src/graph/graph.hpp"

namespace confmask {

enum class NodeKind { kRouter, kHost };

struct TopologyNode {
  NodeKind kind;
  std::string name;
  int config_index;  ///< index into ConfigSet::routers or ::hosts
};

/// One endpoint of a link: the node plus the interface that realizes it.
struct LinkEnd {
  int node = -1;
  std::string interface;
  Ipv4Address address;
};

struct Link {
  LinkEnd a;
  LinkEnd b;
  Ipv4Prefix prefix;

  [[nodiscard]] const LinkEnd& end_of(int node) const {
    return a.node == node ? a : b;
  }
  [[nodiscard]] const LinkEnd& other_end(int node) const {
    return a.node == node ? b : a;
  }
  [[nodiscard]] bool touches(int node) const {
    return a.node == node || b.node == node;
  }
};

/// The parsed topology. Node ids are stable for a given ConfigSet: routers
/// first (in ConfigSet order) then hosts.
class Topology {
 public:
  /// Reconstructs the topology from interface prefixes. Interfaces that
  /// share a prefix are connected pairwise; shutdown and address-less
  /// interfaces are ignored.
  static Topology build(const ConfigSet& configs);

  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] const TopologyNode& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] bool is_router(int id) const {
    return node(id).kind == NodeKind::kRouter;
  }
  /// Node id by hostname (the lowest id when names repeat), or -1.
  [[nodiscard]] int find_node(std::string_view name) const;

  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const Link& link(int id) const {
    return links_[static_cast<std::size_t>(id)];
  }
  /// Indices of links incident to `node`.
  [[nodiscard]] const std::vector<int>& links_of(int node) const {
    return incident_[static_cast<std::size_t>(node)];
  }

  /// Router / host node id lists, computed once at build() time (they
  /// appear in hot loops; callers should bind them by const reference).
  [[nodiscard]] const std::vector<int>& router_ids() const {
    return router_ids_;
  }
  [[nodiscard]] const std::vector<int>& host_ids() const { return host_ids_; }
  [[nodiscard]] int router_count() const { return router_count_; }
  [[nodiscard]] int host_count() const {
    return node_count() - router_count_;
  }
  /// Number of router-router links.
  [[nodiscard]] std::size_t router_link_count() const;

  /// The router-only simple graph (node ids == topology ids, which works
  /// because routers come first). Host links are excluded, matching the
  /// paper's topology-anonymization scope.
  [[nodiscard]] Graph router_graph() const;

  /// The gateway router of a host (the single router it links to), or -1.
  [[nodiscard]] int gateway_of(int host) const;

 private:
  std::vector<TopologyNode> nodes_;
  std::unordered_map<std::string, int> by_name_;
  std::vector<Link> links_;
  std::vector<std::vector<int>> incident_;
  std::vector<int> router_ids_;
  std::vector<int> host_ids_;
  int router_count_ = 0;
};

}  // namespace confmask
