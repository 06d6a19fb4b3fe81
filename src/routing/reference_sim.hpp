// Independent reference simulator — the differential-testing oracle.
//
// This is a deliberately simple, serial re-implementation of the control
// plane the fast engine (simulation.{hpp,cpp}) converges. It shares only
// the ConfigSet / Topology / DataPlane types with the fast engine and no
// code from simulation.cpp: distances are computed by Bellman-Ford
// relaxation to a fixpoint (never Dijkstra), every destination is converged
// one at a time on one thread, and the data plane is enumerated naively per
// ordered host pair with no gateway sharing. Where the fast engine
// optimizes (parallel fan-out, incremental dirty sets, gateway-shared
// walks, batched sweeps), the oracle does the obvious thing — which is
// exactly what makes `DataPlane::diff` between the two a meaningful check.
//
// Modeling rules the oracle shares with the fast engine BY CONTRACT (they
// are observable routing semantics, not implementation choices; DESIGN.md
// §10 is the authoritative list):
//  * OSPF distribute-lists act at RIB-install time (distances are computed
//    over the full LSDB; filters only remove next-hop candidates).
//  * RIP distribute-lists act at advertisement-import time and propagate.
//  * eBGP prefers shortest AS path, then hot-potato egress: lowest IGP
//    distance to a border on a shortest path, ties broken by lowest border
//    node id, then lowest session link id. No BGP multipath at the border.
//  * Static routes have administrative distance 1 and participate in
//    longest-prefix match against the protocol route of the host LAN;
//    unresolvable next hops leave the protocol route installed; connected
//    delivery at the gateway always wins.
//  * Path enumeration caps (kMaxPathsPerFlow and kMaxPathDepth, defined
//    once in dataplane.hpp) and the next-hop visit order (FIB entries
//    ordered by (link id, neighbor id)) are part of the observable
//    contract: both engines must truncate identically.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/config/model.hpp"
#include "src/routing/dataplane.hpp"
#include "src/routing/topology.hpp"

namespace confmask {

class ReferenceSimulation {
 public:
  /// Builds the topology and converges every destination serially.
  /// `configs` must outlive the simulation.
  explicit ReferenceSimulation(const ConfigSet& configs);

  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// One FIB next hop: the link taken and the node on its far side. The
  /// oracle defines its own entry type on purpose — it must not include
  /// simulation.hpp.
  struct Hop {
    int link = -1;
    int neighbor = -1;

    friend auto operator<=>(const Hop&, const Hop&) = default;
  };

  /// FIB entries of `router` for destination host `host`, ordered by
  /// (link, neighbor). Empty means no route.
  [[nodiscard]] const std::vector<Hop>& fib(int router, int host) const;

  /// All complete forwarding paths between every ordered host pair, as
  /// device-name sequences — directly comparable to the fast engine's
  /// extraction via DataPlane::diff. Serial, no gateway sharing.
  [[nodiscard]] DataPlane extract_data_plane() const;

  /// True when any flow of the last extract_data_plane() hit the path or
  /// depth caps. Differential checks use this to refuse to certify a
  /// truncated (and therefore enumeration-order-dependent) comparison.
  [[nodiscard]] bool last_extraction_truncated() const {
    return last_extraction_truncated_;
  }

 private:
  void converge_destination(int host);
  void converge_bgp(int host, int gateway, const Ipv4Prefix& dest);
  void apply_static_routes(int host, int gateway, const Ipv4Prefix& dest);
  [[nodiscard]] bool igp_denies(int router, const std::string& interface,
                                const Ipv4Prefix& dest) const;
  [[nodiscard]] bool bgp_denies(int router, Ipv4Address peer,
                                const Ipv4Prefix& dest) const;
  [[nodiscard]] bool acl_drops(int router, const std::string& interface,
                               const Ipv4Prefix& src,
                               const Ipv4Prefix& dst) const;
  [[nodiscard]] const RouterConfig& router_config(int node) const;
  [[nodiscard]] const HostConfig& host_config(int node) const;
  [[nodiscard]] int as_of(int router) const;
  [[nodiscard]] std::vector<Hop>& slot(int router, int host);
  /// Depth-first enumeration of complete paths from `router` to the
  /// destination host, respecting inbound ACLs when `src` is non-null.
  void walk(int router, int dst_host, const Ipv4Prefix* src,
            const Ipv4Prefix& dst, std::vector<int>& trail,
            std::vector<std::vector<int>>& out, bool& truncated) const;

  const ConfigSet* configs_;
  Topology topology_;
  // Per link id: true when the two ends form an OSPF / RIP adjacency, and
  // the OSPF cost leaving each end.
  struct Adjacency {
    bool ospf = false;
    bool rip = false;
    bool same_as = false;
    int cost_from_a = 0;
    int cost_from_b = 0;
  };
  std::vector<Adjacency> adjacency_;
  struct BgpSession {
    int router_a = -1;
    int router_b = -1;
    int link = -1;
  };
  std::vector<BgpSession> sessions_;
  // igp_dist_[r][r'] — intra-AS IGP distance (hot-potato metric), -1 when
  // unreachable or cross-AS. Bellman-Ford, not Dijkstra.
  std::vector<std::vector<long>> igp_dist_;
  // fib_[router * host_count + (host - router_count)]
  std::vector<std::vector<Hop>> fib_;
  std::vector<Hop> no_route_;
  mutable bool last_extraction_truncated_ = false;
};

}  // namespace confmask
