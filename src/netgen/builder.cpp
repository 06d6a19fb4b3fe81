#include "src/netgen/builder.hpp"

#include <stdexcept>

namespace confmask {

namespace {

// Link /31s come from 10.0.0.0/16 and host LAN /24s from 10.128.0.0/16;
// both are inside 10/8 so RIP classful coverage works uniformly.
const Ipv4Prefix kLinkPool{Ipv4Address{10, 0, 0, 0}, 16};
const Ipv4Prefix kLanPool{Ipv4Address{10, 128, 0, 0}, 16};

}  // namespace

NetworkBuilder::NetworkBuilder() = default;

RouterConfig& NetworkBuilder::router(const std::string& name) {
  const auto [it, inserted] =
      router_index_.try_emplace(name, configs_.routers.size());
  if (!inserted) return configs_.routers[it->second];
  RouterConfig config;
  config.hostname = name;
  configs_.routers.push_back(std::move(config));
  return configs_.routers.back();
}

RouterConfig& NetworkBuilder::require_router(const std::string& name) {
  const auto it = router_index_.find(name);
  if (it == router_index_.end()) {
    throw std::invalid_argument("unknown router: " + name);
  }
  return configs_.routers[it->second];
}

std::string NetworkBuilder::next_interface(RouterConfig& router) {
  return "Ethernet" + std::to_string(router.interfaces.size());
}

void NetworkBuilder::enable_ospf(const std::string& name, int process_id) {
  auto& config = router(name);
  if (!config.ospf) {
    config.ospf = OspfConfig{};
    config.ospf->process_id = process_id;
  }
}

void NetworkBuilder::enable_rip(const std::string& name) {
  auto& config = router(name);
  if (!config.rip) config.rip = RipConfig{};
}

void NetworkBuilder::enable_bgp(const std::string& name, int local_as) {
  auto& config = router(name);
  if (!config.bgp) {
    config.bgp = BgpConfig{};
    config.bgp->local_as = local_as;
  }
}

Ipv4Prefix NetworkBuilder::link(const std::string& a, const std::string& b,
                                std::optional<int> cost_a,
                                std::optional<int> cost_b) {
  auto& ra = require_router(a);
  auto& rb = require_router(b);
  const Ipv4Prefix prefix{
      Ipv4Address{kLinkPool.network().bits() + 2 * link_cursor_++}, 31};

  const auto attach = [&](RouterConfig& router, std::uint32_t host_index,
                          std::optional<int> cost,
                          const std::string& peer_name) {
    InterfaceConfig iface;
    iface.name = next_interface(router);
    iface.address = prefix.host(host_index);
    iface.prefix_length = 31;
    iface.ospf_cost = cost;
    iface.description = "to-" + peer_name;
    router.interfaces.push_back(std::move(iface));
  };
  attach(ra, 0, cost_a, b);
  attach(rb, 1, cost_b, a);

  if (ra.ospf && rb.ospf) {
    ra.ospf->networks.push_back(OspfNetwork{prefix, 0});
    rb.ospf->networks.push_back(OspfNetwork{prefix, 0});
  } else if (ra.rip && rb.rip) {
    ra.rip->cover(prefix.network());
    rb.rip->cover(prefix.network());
  }
  return prefix;
}

Ipv4Prefix NetworkBuilder::ebgp_link(const std::string& a,
                                     const std::string& b) {
  auto& ra = require_router(a);
  auto& rb = require_router(b);
  if (!ra.bgp || !rb.bgp) {
    throw std::logic_error("ebgp_link requires BGP on both routers");
  }
  const Ipv4Prefix prefix{
      Ipv4Address{kLinkPool.network().bits() + 2 * link_cursor_++}, 31};

  const auto attach = [&](RouterConfig& router, std::uint32_t host_index,
                          const std::string& peer_name) {
    InterfaceConfig iface;
    iface.name = next_interface(router);
    iface.address = prefix.host(host_index);
    iface.prefix_length = 31;
    iface.description = "to-" + peer_name;
    router.interfaces.push_back(std::move(iface));
  };
  attach(ra, 0, b);
  attach(rb, 1, a);

  ra.bgp->neighbors.push_back(
      BgpNeighbor{prefix.host(1), rb.bgp->local_as, {}});
  rb.bgp->neighbors.push_back(
      BgpNeighbor{prefix.host(0), ra.bgp->local_as, {}});
  return prefix;
}

void NetworkBuilder::host(const std::string& name,
                          const std::string& gateway) {
  auto& router = require_router(gateway);
  const Ipv4Prefix lan{
      Ipv4Address{kLanPool.network().bits() + (lan_cursor_++ << 8)}, 24};

  InterfaceConfig iface;
  iface.name = next_interface(router);
  iface.address = lan.host(1);
  iface.prefix_length = 24;
  iface.description = "to-" + name;
  router.interfaces.push_back(std::move(iface));

  if (router.ospf) {
    router.ospf->networks.push_back(OspfNetwork{lan, 0});
  } else if (router.rip) {
    router.rip->cover(lan.network());
  }
  if (router.bgp) router.bgp->networks.push_back(lan);

  HostConfig host_config;
  host_config.hostname = name;
  host_config.address = lan.host(10);
  host_config.prefix_length = 24;
  host_config.gateway = lan.host(1);
  configs_.hosts.push_back(std::move(host_config));
}

}  // namespace confmask
