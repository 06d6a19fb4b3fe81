// FlatTopology CSR/SoA invariants: the half-edge arrays mirror
// Topology::links_of, host-facing interfaces intern, and the eBGP session
// and border indexes are consistent. FIB agreement of the simulator built
// on them is checked against the reference oracle
// (tests/test_differential_sim.cpp).
#include <gtest/gtest.h>

#include <cstdint>

#include "src/netgen/scale_families.hpp"
#include "src/routing/flat_topology.hpp"
#include "src/routing/topology.hpp"

namespace confmask {
namespace {

// The CSR half-edge arrays must mirror Topology::links_of exactly — FIB
// push order (and therefore every golden artifact byte) rides on it.
TEST(FlatTopology, CsrMirrorsLinksOfOrder) {
  const ConfigSet configs = make_scale_network(ScaleFamily::kWaxman, 60, 7);
  const Topology topo = Topology::build(configs);
  const FlatTopology flat = FlatTopology::build(topo, configs);
  for (int u = 0; u < topo.node_count(); ++u) {
    const auto& incident = topo.links_of(u);
    ASSERT_EQ(flat.last_out(u) - flat.first_out(u),
              static_cast<std::int32_t>(incident.size()))
        << "node " << u;
    for (std::size_t i = 0; i < incident.size(); ++i) {
      const std::int32_t e = flat.first_out(u) + static_cast<std::int32_t>(i);
      EXPECT_EQ(flat.edge_link(e), incident[i]) << "node " << u;
      EXPECT_EQ(flat.edge_target(e),
                topo.link(incident[i]).other_end(u).node)
          << "node " << u;
    }
  }
}

// Gateway host-facing interfaces must intern to real slots: inbound ACLs
// bind there (regression — host links once skipped interface interning,
// silently disabling source-gateway ACLs).
TEST(FlatTopology, HostLinksInternRouterSideInterfaces) {
  const ConfigSet configs = make_scale_network(ScaleFamily::kWaxman, 40, 3);
  const Topology topo = Topology::build(configs);
  const FlatTopology flat = FlatTopology::build(topo, configs);
  const int n = topo.router_count();
  ASSERT_GT(topo.host_count(), 0);
  for (const int host : topo.host_ids()) {
    for (std::int32_t e = flat.first_out(host); e < flat.last_out(host);
         ++e) {
      EXPECT_EQ(flat.edge_flags(e), 0) << "host link carries IGP flags";
      EXPECT_LT(flat.edge_target(e), n);
      EXPECT_GE(flat.edge_peer_iface(e), 0)
          << "gateway-side interface of host " << topo.node(host).name
          << " not interned";
      EXPECT_EQ(flat.edge_iface(e), -1) << "hosts own no interface slots";
    }
  }
}

TEST(FlatTopology, MultiAsSessionAndBorderIndex) {
  const ConfigSet configs = make_scale_network(ScaleFamily::kMultiAs, 80, 11);
  const Topology topo = Topology::build(configs);
  const FlatTopology flat = FlatTopology::build(topo, configs);
  ASSERT_FALSE(flat.sessions().empty());
  ASSERT_GE(flat.as_count(), 2);
  for (const auto& session : flat.sessions()) {
    EXPECT_NE(flat.router_as(session.router_a),
              flat.router_as(session.router_b));
    EXPECT_GE(flat.border_index(session.router_a), 0);
    EXPECT_GE(flat.border_index(session.router_b), 0);
  }
  for (const int border : flat.border_routers()) {
    EXPECT_GE(flat.as_index(border), 0);
    EXPECT_LT(flat.as_index(border), flat.as_count());
  }
}

}  // namespace
}  // namespace confmask
