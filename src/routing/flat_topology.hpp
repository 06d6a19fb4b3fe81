// Flat CSR/SoA view of a Topology — the cache-friendly substrate of the
// simulation hot path (DESIGN.md §13).
//
// Topology is the boundary type the anonymizer and the tests talk to: it
// keeps names, per-link endpoint structs and per-node incident vectors.
// None of that layout survives contact with 10³–10⁴-router networks: the
// simulator's inner loops (per-destination Dijkstra, RIP Bellman-Ford
// sweeps, FIB next-hop installation, data-plane walks) would chase one
// heap pointer per neighbor and hash one std::string per filter lookup.
//
// FlatTopology is built exactly once per Topology and replaces those
// lookups with dense integer indexing:
//
//  * compressed-sparse-row half-edges: `first_out(u) .. last_out(u)`
//    indexes parallel arrays (link id, target node, OSPF cost out / in,
//    protocol flags, interned interface slot) — one contiguous scan per
//    node, no per-node vector<int> hop;
//  * interned interface ids: every (router, interface) pair gets a dense
//    global slot, so route-filter and ACL lookups become array indexing
//    instead of `std::map<std::string, ...>::find` on the FIB fill path
//    (the per-Simulation filter tables indexed by these slots live in
//    Simulation — they must be rebuilt per config generation, the slots
//    never change);
//  * per-link SoA (endpoint nodes / interface slots; flags and
//    directional costs live on the half-edges) subsuming the old
//    per-Simulation LinkState vector;
//  * per-host routing facts (connected prefix, gateway, gateway link,
//    IGP coverage, BGP advertisement) hoisted out of the per-destination
//    loop;
//  * dense AS indices, eBGP session endpoints with pre-resolved peer
//    addresses, and the border-router index hot-potato selection needs.
//
// Everything stored here is VALUE data derived from the frozen parts of a
// configuration set (interfaces, links, costs, protocol coverage, BGP
// sessions, static-route placement). It deliberately holds no pointers
// into the ConfigSet, so incremental re-simulations — which see a new
// ConfigSet object differing only in route filters — share one immutable
// FlatTopology by shared_ptr, exactly like the Topology itself.
#pragma once

#include <cstdint>
#include <vector>

#include "src/config/model.hpp"
#include "src/routing/topology.hpp"

namespace confmask {

class FlatTopology {
 public:
  /// Half-edge / link protocol flags.
  enum Flags : std::uint8_t {
    kOspf = 1,     ///< OSPF adjacency (both ends covered, intra-AS)
    kRip = 2,      ///< RIP adjacency
    kIntraAs = 4,  ///< both routers in the same AS (or neither in BGP)
    kIgp = kOspf | kRip,
  };

  /// How a destination host is carried by its gateway's IGP.
  enum class HostRoute : std::uint8_t { kNone, kOspf, kRip };

  /// One eBGP session with the peer addresses each side filters on.
  struct Session {
    std::int32_t router_a = -1;
    std::int32_t router_b = -1;
    std::int32_t link = -1;
    std::uint32_t peer_bits_at_a = 0;  ///< address of b's end, seen by a
    std::uint32_t peer_bits_at_b = 0;  ///< address of a's end, seen by b
  };

  /// Builds the flat view. `topo` must have been built from `configs`.
  static FlatTopology build(const Topology& topo, const ConfigSet& configs);

  // --- CSR half-edges (both directions of every link, hosts included) ---
  [[nodiscard]] std::int32_t first_out(int node) const {
    return offset_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] std::int32_t last_out(int node) const {
    return offset_[static_cast<std::size_t>(node) + 1];
  }
  [[nodiscard]] std::int32_t edge_link(std::int32_t e) const {
    return e_link_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::int32_t edge_target(std::int32_t e) const {
    return e_target_[static_cast<std::size_t>(e)];
  }
  /// OSPF cost leaving the owning node over this half-edge.
  [[nodiscard]] std::int32_t edge_cost_out(std::int32_t e) const {
    return e_cost_out_[static_cast<std::size_t>(e)];
  }
  /// OSPF cost of the TARGET forwarding back towards the owning node (the
  /// twin half-edge's out-cost) — what reverse-Dijkstra relaxation needs.
  [[nodiscard]] std::int32_t edge_cost_in(std::int32_t e) const {
    return e_cost_in_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::uint8_t edge_flags(std::int32_t e) const {
    return e_flags_[static_cast<std::size_t>(e)];
  }
  /// Interned interface slot of the owning node's end (-1 for host ends).
  [[nodiscard]] std::int32_t edge_iface(std::int32_t e) const {
    return e_iface_[static_cast<std::size_t>(e)];
  }
  /// Interned interface slot of the target's end (-1 for host ends).
  [[nodiscard]] std::int32_t edge_peer_iface(std::int32_t e) const {
    return e_peer_iface_[static_cast<std::size_t>(e)];
  }

  // --- per-link SoA (indexed by topology link id) ---
  [[nodiscard]] std::int32_t link_node_a(int link) const {
    return l_node_a_[static_cast<std::size_t>(link)];
  }
  [[nodiscard]] std::int32_t link_node_b(int link) const {
    return l_node_b_[static_cast<std::size_t>(link)];
  }
  /// Interface slot at `node`'s end of `link` (-1 for host ends).
  [[nodiscard]] std::int32_t link_iface_at(int link, int node) const {
    const auto l = static_cast<std::size_t>(link);
    return l_node_a_[l] == node ? l_iface_a_[l] : l_iface_b_[l];
  }

  // --- interned interfaces ---
  /// First global interface slot of `router`; the router's i-th configured
  /// interface (ConfigSet order) owns slot `iface_base(router) + i`.
  [[nodiscard]] std::int32_t iface_base(int router) const {
    return iface_base_[static_cast<std::size_t>(router)];
  }
  [[nodiscard]] std::int32_t iface_slot_count() const {
    return iface_base_[iface_base_.size() - 1];
  }

  // --- per-host routing facts (index = host node id - router_count) ---
  [[nodiscard]] const Ipv4Prefix& host_prefix(int host_index) const {
    return host_prefix_[static_cast<std::size_t>(host_index)];
  }
  [[nodiscard]] Ipv4Address host_address(int host_index) const {
    return host_address_[static_cast<std::size_t>(host_index)];
  }
  [[nodiscard]] std::int32_t host_gateway(int host_index) const {
    return host_gateway_[static_cast<std::size_t>(host_index)];
  }
  /// The host-gateway link id, or -1 when the host has no gateway.
  [[nodiscard]] std::int32_t host_gateway_link(int host_index) const {
    return host_gateway_link_[static_cast<std::size_t>(host_index)];
  }
  [[nodiscard]] HostRoute host_route(int host_index) const {
    return host_route_[static_cast<std::size_t>(host_index)];
  }
  [[nodiscard]] bool host_bgp_advertised(int host_index) const {
    return host_bgp_advertised_[static_cast<std::size_t>(host_index)] != 0;
  }

  // --- BGP ---
  [[nodiscard]] std::int32_t router_as(int router) const {
    return router_as_[static_cast<std::size_t>(router)];
  }
  /// Dense index of the router's AS among the distinct AS numbers present
  /// (-1 when the router runs no BGP).
  [[nodiscard]] std::int32_t as_index(int router) const {
    return as_index_[static_cast<std::size_t>(router)];
  }
  [[nodiscard]] std::int32_t as_count() const { return as_count_; }
  [[nodiscard]] const std::vector<Session>& sessions() const {
    return sessions_;
  }
  /// Routers that terminate at least one eBGP session, ascending.
  [[nodiscard]] const std::vector<std::int32_t>& border_routers() const {
    return border_routers_;
  }
  /// Dense border index of a router, -1 for non-borders.
  [[nodiscard]] std::int32_t border_index(int router) const {
    return border_index_[static_cast<std::size_t>(router)];
  }

  // --- static routes ---
  /// Routers owning at least one static route, ascending. The routes
  /// themselves are read from the current ConfigSet (their placement is
  /// frozen across incremental generations; their values live in configs).
  [[nodiscard]] const std::vector<std::int32_t>& routers_with_statics()
      const {
    return static_routers_;
  }

 private:
  // CSR over nodes; half-edges of node u live at [offset_[u], offset_[u+1])
  // in link-id-ascending order (matching Topology::links_of iteration).
  std::vector<std::int32_t> offset_;
  std::vector<std::int32_t> e_link_;
  std::vector<std::int32_t> e_target_;
  std::vector<std::int32_t> e_cost_out_;
  std::vector<std::int32_t> e_cost_in_;
  std::vector<std::uint8_t> e_flags_;
  std::vector<std::int32_t> e_iface_;
  std::vector<std::int32_t> e_peer_iface_;

  std::vector<std::int32_t> l_node_a_;
  std::vector<std::int32_t> l_node_b_;
  std::vector<std::int32_t> l_iface_a_;
  std::vector<std::int32_t> l_iface_b_;

  std::vector<std::int32_t> iface_base_;  // router_count + 1

  std::vector<Ipv4Prefix> host_prefix_;
  std::vector<Ipv4Address> host_address_;
  std::vector<std::int32_t> host_gateway_;
  std::vector<std::int32_t> host_gateway_link_;
  std::vector<HostRoute> host_route_;
  std::vector<std::uint8_t> host_bgp_advertised_;

  std::vector<std::int32_t> router_as_;
  std::vector<std::int32_t> as_index_;
  std::int32_t as_count_ = 0;
  std::vector<Session> sessions_;
  std::vector<std::int32_t> border_routers_;
  std::vector<std::int32_t> border_index_;

  std::vector<std::int32_t> static_routers_;
};

}  // namespace confmask
