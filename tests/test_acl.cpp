// Packet-filter ACLs: parse/emit, data-plane drop semantics (black holes
// and multipath inconsistency), and — crucially — ConfMask preserving an
// ACL'd network's behaviour exactly, black holes included.
#include <gtest/gtest.h>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/core/utility_properties.hpp"
#include "src/netgen/builder.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

ConfigSet diamond() {
  NetworkBuilder builder;
  for (const char* name : {"a", "l", "r", "b"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("a", "l");
  builder.link("a", "r");
  builder.link("l", "b");
  builder.link("r", "b");
  builder.host("hs", "a");
  builder.host("hd", "b");
  return builder.take();
}

/// Binds `acl` inbound on `router`'s interface towards `peer`.
void bind_inbound(ConfigSet& configs, const std::string& router,
                  const std::string& peer, int acl_number) {
  auto* config = configs.find_router(router);
  for (auto& iface : config->interfaces) {
    if (iface.description == "to-" + peer) iface.access_group_in = acl_number;
  }
}

TEST(Acl, ModelSemantics) {
  AccessList list{101, {}};
  const auto any = Ipv4Prefix{Ipv4Address{0u}, 0};
  const auto src = *Ipv4Prefix::parse("10.128.0.0/24");
  const auto dst = *Ipv4Prefix::parse("10.128.1.0/24");
  list.entries.push_back(AclEntry{false, src, dst});
  list.entries.push_back(AclEntry{true, any, any});
  EXPECT_FALSE(list.permits(src, dst));
  EXPECT_TRUE(list.permits(dst, src));  // reverse direction
  AccessList empty{102, {}};
  EXPECT_FALSE(empty.permits(src, dst));  // implicit deny
}

TEST(Acl, ParseEmitRoundTrip) {
  const char* text =
      "hostname r1\n"
      "interface Ethernet0\n"
      " ip address 10.0.0.0 255.255.255.254\n"
      " ip access-group 101 in\n"
      "!\n"
      "access-list 101 deny ip 10.128.0.0 0.0.0.255 10.128.1.0 0.0.0.255\n"
      "access-list 101 permit ip any any\n";
  const auto router = parse_router(text);
  ASSERT_EQ(router.access_lists.size(), 1u);
  EXPECT_EQ(router.access_lists[0].entries.size(), 2u);
  ASSERT_TRUE(router.interfaces[0].access_group_in.has_value());
  EXPECT_EQ(*router.interfaces[0].access_group_in, 101);
  const auto reemitted = emit_router(router);
  EXPECT_EQ(emit_router(parse_router(reemitted)), reemitted);
  EXPECT_NE(reemitted.find("access-list 101 permit ip any any"),
            std::string::npos);
}

TEST(Acl, ParseErrors) {
  EXPECT_THROW((void)parse_router("access-list 101 frobnicate ip any any\n"),
               ConfigParseError);
  EXPECT_THROW((void)parse_router("access-list 101 deny ip any\n"),
               ConfigParseError);
  EXPECT_THROW(
      (void)parse_router("access-list 101 deny ip 10.0.0.0 0.0.255.0 any\n"),
      ConfigParseError);
}

TEST(Acl, DropsOneDirectionOnly) {
  auto configs = diamond();
  const auto src = configs.find_host("hs")->prefix();
  const auto dst = configs.find_host("hd")->prefix();
  // Deny hs->hd on BOTH of b's inbound transit interfaces.
  auto* b = configs.find_router("b");
  b->access_lists.push_back(AccessList{
      101,
      {AclEntry{false, src, dst},
       AclEntry{true, Ipv4Prefix{Ipv4Address{0u}, 0},
                Ipv4Prefix{Ipv4Address{0u}, 0}}}});
  bind_inbound(configs, "b", "l", 101);
  bind_inbound(configs, "b", "r", 101);

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  EXPECT_TRUE(sim.paths(topo.find_node("hs"), topo.find_node("hd")).empty());
  EXPECT_EQ(sim.paths(topo.find_node("hd"), topo.find_node("hs")).size(), 2u);
}

TEST(Acl, BreaksOnlyOneEcmpBranch) {
  auto configs = diamond();
  const auto src = configs.find_host("hs")->prefix();
  const auto dst = configs.find_host("hd")->prefix();
  auto* l = configs.find_router("l");
  l->access_lists.push_back(AccessList{
      101,
      {AclEntry{false, src, dst},
       AclEntry{true, Ipv4Prefix{Ipv4Address{0u}, 0},
                Ipv4Prefix{Ipv4Address{0u}, 0}}}});
  bind_inbound(configs, "l", "a", 101);

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  const auto paths = sim.paths(topo.find_node("hs"), topo.find_node("hd"));
  ASSERT_EQ(paths.size(), 1u);  // multipath inconsistency: one branch drops
  EXPECT_EQ(paths[0][2], "r");
}

TEST(Acl, HostFacingInboundFilter) {
  auto configs = diamond();
  const auto src = configs.find_host("hs")->prefix();
  const auto dst = configs.find_host("hd")->prefix();
  auto* a = configs.find_router("a");
  a->access_lists.push_back(AccessList{
      102,
      {AclEntry{false, src, dst},
       AclEntry{true, Ipv4Prefix{Ipv4Address{0u}, 0},
                Ipv4Prefix{Ipv4Address{0u}, 0}}}});
  bind_inbound(configs, "a", "hs", 102);

  const Simulation sim(configs);
  const auto& topo = sim.topology();
  EXPECT_TRUE(sim.paths(topo.find_node("hs"), topo.find_node("hd")).empty());
}

TEST(Acl, ConfMaskPreservesAclBlackHolesExactly) {
  // A network with an intentional data-plane black hole: the anonymized
  // network must reproduce the black hole, not "fix" it (functional
  // equivalence is if-and-only-if, §3.1).
  auto configs = diamond();
  const auto src = configs.find_host("hs")->prefix();
  const auto dst = configs.find_host("hd")->prefix();
  auto* b = configs.find_router("b");
  b->access_lists.push_back(AccessList{
      101,
      {AclEntry{false, src, dst},
       AclEntry{true, Ipv4Prefix{Ipv4Address{0u}, 0},
                Ipv4Prefix{Ipv4Address{0u}, 0}}}});
  bind_inbound(configs, "b", "l", 101);
  bind_inbound(configs, "b", "r", 101);

  ConfMaskOptions options;
  options.k_r = 4;
  options.seed = 19;
  const auto result = run_confmask(configs, options);
  EXPECT_TRUE(result.functionally_equivalent);
  const DataPlane original_dp = simulated_data_plane(configs);
  const DataPlane anonymized_dp = simulated_data_plane(result.anonymized);
  // The black-holed flow stays black-holed.
  EXPECT_EQ(original_dp.flows.count({"hs", "hd"}), 0u);
  EXPECT_EQ(anonymized_dp.flows.count({"hs", "hd"}), 0u);
  // The permitted direction stays intact.
  EXPECT_EQ(anonymized_dp.flows.count({"hd", "hs"}), 1u);
  EXPECT_TRUE(check_utility_properties(original_dp, anonymized_dp).all());
  // The ACL lines survive into the anonymized output.
  const auto text = emit_router(*result.anonymized.find_router("b"));
  EXPECT_NE(text.find("access-list 101 deny ip"), std::string::npos);
}

}  // namespace
}  // namespace confmask
