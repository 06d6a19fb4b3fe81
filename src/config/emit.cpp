#include "src/config/emit.hpp"

#include <algorithm>
#include <type_traits>

namespace confmask {

LineStats& LineStats::operator+=(const LineStats& rhs) {
  hostname += rhs.hostname;
  interface += rhs.interface;
  protocol += rhs.protocol;
  filter += rhs.filter;
  other += rhs.other;
  return *this;
}

LineStats operator-(LineStats lhs, const LineStats& rhs) {
  lhs.hostname -= rhs.hostname;
  lhs.interface -= rhs.interface;
  lhs.protocol -= rhs.protocol;
  lhs.filter -= rhs.filter;
  lhs.other -= rhs.other;
  return lhs;
}

namespace {

/// Collects (category, text) lines; text and stats are produced in the same
/// pass so they cannot diverge.
class Writer {
 public:
  void line(LineCategory category, std::string text) {
    switch (category) {
      case LineCategory::kHostname: ++stats_.hostname; break;
      case LineCategory::kInterface: ++stats_.interface; break;
      case LineCategory::kProtocol: ++stats_.protocol; break;
      case LineCategory::kFilter: ++stats_.filter; break;
      case LineCategory::kOther: ++stats_.other; break;
    }
    text_ += text;
    text_ += '\n';
  }

  void separator() {
    text_ += "!\n";
  }

  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] const LineStats& stats() const { return stats_; }

 private:
  std::string text_;
  LineStats stats_;
};

std::string mask_str(int length) {
  return Ipv4Prefix{Ipv4Address{~std::uint32_t{0}}, length}.mask().str();
}

void write_interface(Writer& w, const InterfaceConfig& iface) {
  w.line(LineCategory::kInterface, "interface " + iface.name);
  if (iface.address) {
    w.line(LineCategory::kInterface, " ip address " + iface.address->str() +
                                         " " + mask_str(iface.prefix_length));
  }
  if (iface.ospf_cost) {
    w.line(LineCategory::kInterface,
           " ip ospf cost " + std::to_string(*iface.ospf_cost));
  }
  if (!iface.description.empty()) {
    w.line(LineCategory::kInterface, " description " + iface.description);
  }
  if (iface.shutdown) w.line(LineCategory::kInterface, " shutdown");
  if (iface.access_group_in) {
    w.line(LineCategory::kInterface,
           " ip access-group " + std::to_string(*iface.access_group_in) +
               " in");
  }
  for (const auto& extra : iface.extra_lines) {
    w.line(LineCategory::kInterface, " " + extra);
  }
  w.separator();
}

void write_ospf(Writer& w, const OspfConfig& ospf) {
  w.line(LineCategory::kProtocol,
         "router ospf " + std::to_string(ospf.process_id));
  for (const auto& network : ospf.networks) {
    w.line(LineCategory::kProtocol,
           " network " + network.prefix.network().str() + " " +
               network.prefix.wildcard().str() + " area " +
               std::to_string(network.area));
  }
  for (const auto& extra : ospf.extra_lines) {
    w.line(LineCategory::kProtocol, " " + extra);
  }
  for (const auto& dl : ospf.distribute_lists) {
    w.line(LineCategory::kFilter, " distribute-list prefix " +
                                      dl.prefix_list + " in " + dl.interface);
  }
  w.separator();
}

void write_rip(Writer& w, const RipConfig& rip) {
  w.line(LineCategory::kProtocol, "router rip");
  w.line(LineCategory::kProtocol, " version " + std::to_string(rip.version));
  for (const auto network : rip.networks) {
    w.line(LineCategory::kProtocol, " network " + network.str());
  }
  for (const auto& extra : rip.extra_lines) {
    w.line(LineCategory::kProtocol, " " + extra);
  }
  for (const auto& dl : rip.distribute_lists) {
    w.line(LineCategory::kFilter, " distribute-list prefix " +
                                      dl.prefix_list + " in " + dl.interface);
  }
  w.separator();
}

void write_bgp(Writer& w, const BgpConfig& bgp) {
  w.line(LineCategory::kProtocol,
         "router bgp " + std::to_string(bgp.local_as));
  for (const auto& network : bgp.networks) {
    w.line(LineCategory::kProtocol, " network " + network.network().str() +
                                        " mask " + network.mask().str());
  }
  for (const auto& neighbor : bgp.neighbors) {
    w.line(LineCategory::kProtocol, " neighbor " + neighbor.address.str() +
                                        " remote-as " +
                                        std::to_string(neighbor.remote_as));
    for (const auto& list : neighbor.prefix_lists_in) {
      w.line(LineCategory::kFilter, " neighbor " + neighbor.address.str() +
                                        " prefix-list " + list + " in");
    }
  }
  for (const auto& extra : bgp.extra_lines) {
    w.line(LineCategory::kProtocol, " " + extra);
  }
  w.separator();
}

/// Source/destination operand of an ACL entry ("any" for /0).
std::string acl_operand(const Ipv4Prefix& prefix) {
  if (prefix.length() == 0) return "any";
  return prefix.network().str() + " " + prefix.wildcard().str();
}

void write_access_list(Writer& w, const AccessList& list) {
  for (const auto& entry : list.entries) {
    w.line(LineCategory::kFilter,
           "access-list " + std::to_string(list.number) + " " +
               (entry.permit ? "permit ip " : "deny ip ") +
               acl_operand(entry.source) + " " +
               acl_operand(entry.destination));
  }
}

void write_prefix_list(Writer& w, const PrefixList& list) {
  for (const auto& entry : list.entries) {
    std::string text = "ip prefix-list " + list.name + " seq " +
                       std::to_string(entry.seq) + " " +
                       (entry.permit ? "permit " : "deny ") +
                       entry.prefix.str();
    if (entry.ge) text += " ge " + std::to_string(*entry.ge);
    if (entry.le) text += " le " + std::to_string(*entry.le);
    w.line(LineCategory::kFilter, text);
  }
}

Writer write_router(const RouterConfig& router) {
  Writer w;
  w.line(LineCategory::kHostname, "hostname " + router.hostname);
  w.separator();
  for (const auto& iface : router.interfaces) write_interface(w, iface);
  if (router.ospf) write_ospf(w, *router.ospf);
  if (router.rip) write_rip(w, *router.rip);
  if (router.bgp) write_bgp(w, *router.bgp);
  for (const auto& route : router.static_routes) {
    w.line(LineCategory::kProtocol,
           "ip route " + route.prefix.network().str() + " " +
               route.prefix.mask().str() + " " + route.next_hop.str());
  }
  if (!router.static_routes.empty()) w.separator();
  for (const auto& list : router.prefix_lists) write_prefix_list(w, list);
  if (!router.prefix_lists.empty()) w.separator();
  for (const auto& list : router.access_lists) write_access_list(w, list);
  if (!router.access_lists.empty()) w.separator();
  for (const auto& extra : router.extra_lines) {
    w.line(LineCategory::kOther, extra);
  }
  return w;
}

Writer write_host(const HostConfig& host) {
  Writer w;
  w.line(LineCategory::kHostname, "hostname " + host.hostname);
  w.separator();
  w.line(LineCategory::kInterface, "interface " + host.interface_name);
  w.line(LineCategory::kInterface, " ip address " + host.address.str() + " " +
                                       mask_str(host.prefix_length));
  w.separator();
  w.line(LineCategory::kOther, "ip default-gateway " + host.gateway.str());
  for (const auto& extra : host.extra_lines) {
    w.line(LineCategory::kOther, extra);
  }
  w.separator();
  return w;
}

}  // namespace

std::string emit_router(const RouterConfig& router) {
  return write_router(router).text();
}

std::string emit_host(const HostConfig& host) {
  return write_host(host).text();
}

LineStats router_line_stats(const RouterConfig& router) {
  return write_router(router).stats();
}

LineStats host_line_stats(const HostConfig& host) {
  return write_host(host).stats();
}

LineStats config_set_line_stats(const ConfigSet& configs) {
  LineStats stats;
  for (const auto& router : configs.routers) {
    stats += router_line_stats(router);
  }
  for (const auto& host : configs.hosts) stats += host_line_stats(host);
  return stats;
}

std::size_t config_set_total_lines(const ConfigSet& configs) {
  return config_set_line_stats(configs).total();
}

BundleLineStats bundle_line_stats(const ConfigSet& original,
                                  const ConfigSet& anonymized) {
  return {config_set_line_stats(original), config_set_line_stats(anonymized)};
}

ConfigSet canonicalize(ConfigSet configs) {
  const auto by_hostname = [](const auto& a, const auto& b) {
    return a.hostname < b.hostname;
  };
  std::stable_sort(configs.routers.begin(), configs.routers.end(),
                   by_hostname);
  std::stable_sort(configs.hosts.begin(), configs.hosts.end(), by_hostname);
  return configs;
}

CanonicalOrder canonical_order(const ConfigSet& configs) {
  // The same stable hostname sort as canonicalize(), over pointers.
  // Bundles usually arrive sorted already, which one pass confirms.
  const auto sorted = [](const auto& devices) {
    using Device = std::remove_cvref_t<decltype(devices.front())>;
    std::vector<const Device*> view;
    view.reserve(devices.size());
    for (const Device& device : devices) view.push_back(&device);
    const auto by_hostname = [](const Device* a, const Device* b) {
      return a->hostname < b->hostname;
    };
    if (!std::is_sorted(view.begin(), view.end(), by_hostname)) {
      std::stable_sort(view.begin(), view.end(), by_hostname);
    }
    return view;
  };
  return CanonicalOrder{sorted(configs.routers), sorted(configs.hosts)};
}

std::string canonical_config_set_text(const ConfigSet& configs) {
  const CanonicalOrder canonical = canonical_order(configs);
  std::string out;
  for (const RouterConfig* router : canonical.routers) {
    out += std::string(kDeviceMarker) + router->hostname + "\n";
    out += emit_router(*router);
  }
  for (const HostConfig* host : canonical.hosts) {
    out += std::string(kDeviceMarker) + host->hostname + "\n";
    out += emit_host(*host);
  }
  return out;
}

}  // namespace confmask
