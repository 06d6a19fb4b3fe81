#include "src/config/emit.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
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

/// Writes (category, text) lines straight into one output buffer; text
/// and stats are produced in the same pass so they cannot diverge. A line
/// is a list of parts — text, integers and IPv4 values — each formatted in
/// place, so no line or number is built as a string of its own.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  /// Starts a line of `category`; add() appends more parts until end().
  template <typename... Parts>
  void begin(LineCategory category, const Parts&... parts) {
    switch (category) {
      case LineCategory::kHostname: ++stats_.hostname; break;
      case LineCategory::kInterface: ++stats_.interface; break;
      case LineCategory::kProtocol: ++stats_.protocol; break;
      case LineCategory::kFilter: ++stats_.filter; break;
      case LineCategory::kOther: ++stats_.other; break;
    }
    add(parts...);
  }

  template <typename... Parts>
  void add(const Parts&... parts) {
    (append(parts), ...);
  }

  void end() { out_ += '\n'; }

  template <typename... Parts>
  void line(LineCategory category, const Parts&... parts) {
    begin(category, parts...);
    end();
  }

  void separator() { out_ += "!\n"; }

  [[nodiscard]] const LineStats& stats() const { return stats_; }

 private:
  void append(std::string_view text) { out_ += text; }
  void append(Ipv4Address address) { address.append_to(out_); }
  void append(const Ipv4Prefix& prefix) { prefix.append_to(out_); }
  void append(int value) {
    char text[16];
    const char* end = std::to_chars(text, text + sizeof text, value).ptr;
    out_.append(text, static_cast<std::size_t>(end - text));
  }

  std::string& out_;
  LineStats stats_;
};

/// The dotted-quad mask of a prefix length.
Ipv4Address mask_of(int length) {
  return Ipv4Prefix{Ipv4Address{~std::uint32_t{0}}, length}.mask();
}

void write_interface(Writer& w, const InterfaceConfig& iface) {
  w.line(LineCategory::kInterface, "interface ", iface.name);
  if (iface.address) {
    w.line(LineCategory::kInterface, " ip address ", *iface.address, " ",
           mask_of(iface.prefix_length));
  }
  if (iface.ospf_cost) {
    w.line(LineCategory::kInterface, " ip ospf cost ", *iface.ospf_cost);
  }
  if (!iface.description.empty()) {
    w.line(LineCategory::kInterface, " description ", iface.description);
  }
  if (iface.shutdown) w.line(LineCategory::kInterface, " shutdown");
  if (iface.access_group_in) {
    w.line(LineCategory::kInterface, " ip access-group ",
           *iface.access_group_in, " in");
  }
  for (const auto& extra : iface.extra_lines) {
    w.line(LineCategory::kInterface, " ", extra);
  }
  w.separator();
}

void write_ospf(Writer& w, const OspfConfig& ospf) {
  w.line(LineCategory::kProtocol, "router ospf ", ospf.process_id);
  for (const auto& network : ospf.networks) {
    w.line(LineCategory::kProtocol, " network ", network.prefix.network(), " ",
           network.prefix.wildcard(), " area ", network.area);
  }
  for (const auto& extra : ospf.extra_lines) {
    w.line(LineCategory::kProtocol, " ", extra);
  }
  for (const auto& dl : ospf.distribute_lists) {
    w.line(LineCategory::kFilter, " distribute-list prefix ", dl.prefix_list,
           " in ", dl.interface);
  }
  w.separator();
}

void write_rip(Writer& w, const RipConfig& rip) {
  w.line(LineCategory::kProtocol, "router rip");
  w.line(LineCategory::kProtocol, " version ", rip.version);
  for (const auto network : rip.networks) {
    w.line(LineCategory::kProtocol, " network ", network);
  }
  for (const auto& extra : rip.extra_lines) {
    w.line(LineCategory::kProtocol, " ", extra);
  }
  for (const auto& dl : rip.distribute_lists) {
    w.line(LineCategory::kFilter, " distribute-list prefix ", dl.prefix_list,
           " in ", dl.interface);
  }
  w.separator();
}

void write_bgp(Writer& w, const BgpConfig& bgp) {
  w.line(LineCategory::kProtocol, "router bgp ", bgp.local_as);
  for (const auto& network : bgp.networks) {
    w.line(LineCategory::kProtocol, " network ", network.network(), " mask ",
           network.mask());
  }
  for (const auto& neighbor : bgp.neighbors) {
    w.line(LineCategory::kProtocol, " neighbor ", neighbor.address,
           " remote-as ", neighbor.remote_as);
    for (const auto& list : neighbor.prefix_lists_in) {
      w.line(LineCategory::kFilter, " neighbor ", neighbor.address,
             " prefix-list ", list, " in");
    }
  }
  for (const auto& extra : bgp.extra_lines) {
    w.line(LineCategory::kProtocol, " ", extra);
  }
  w.separator();
}

/// Source/destination operand of an ACL entry ("any" for /0).
void write_acl_operand(Writer& w, const Ipv4Prefix& prefix) {
  if (prefix.length() == 0) {
    w.add("any");
  } else {
    w.add(prefix.network(), " ", prefix.wildcard());
  }
}

void write_access_list(Writer& w, const AccessList& list) {
  for (const auto& entry : list.entries) {
    w.begin(LineCategory::kFilter, "access-list ", list.number,
            entry.permit ? " permit ip " : " deny ip ");
    write_acl_operand(w, entry.source);
    w.add(" ");
    write_acl_operand(w, entry.destination);
    w.end();
  }
}

void write_prefix_list(Writer& w, const PrefixList& list) {
  for (const auto& entry : list.entries) {
    w.begin(LineCategory::kFilter, "ip prefix-list ", list.name, " seq ",
            entry.seq, entry.permit ? " permit " : " deny ", entry.prefix);
    if (entry.ge) w.add(" ge ", *entry.ge);
    if (entry.le) w.add(" le ", *entry.le);
    w.end();
  }
}

LineStats write_router(std::string& out, const RouterConfig& router) {
  Writer w(out);
  w.line(LineCategory::kHostname, "hostname ", router.hostname);
  w.separator();
  for (const auto& iface : router.interfaces) write_interface(w, iface);
  if (router.ospf) write_ospf(w, *router.ospf);
  if (router.rip) write_rip(w, *router.rip);
  if (router.bgp) write_bgp(w, *router.bgp);
  for (const auto& route : router.static_routes) {
    w.line(LineCategory::kProtocol, "ip route ", route.prefix.network(), " ",
           route.prefix.mask(), " ", route.next_hop);
  }
  if (!router.static_routes.empty()) w.separator();
  for (const auto& list : router.prefix_lists) write_prefix_list(w, list);
  if (!router.prefix_lists.empty()) w.separator();
  for (const auto& list : router.access_lists) write_access_list(w, list);
  if (!router.access_lists.empty()) w.separator();
  for (const auto& extra : router.extra_lines) {
    w.line(LineCategory::kOther, extra);
  }
  return w.stats();
}

LineStats write_host(std::string& out, const HostConfig& host) {
  Writer w(out);
  w.line(LineCategory::kHostname, "hostname ", host.hostname);
  w.separator();
  w.line(LineCategory::kInterface, "interface ", host.interface_name);
  w.line(LineCategory::kInterface, " ip address ", host.address, " ",
         mask_of(host.prefix_length));
  w.separator();
  w.line(LineCategory::kOther, "ip default-gateway ", host.gateway);
  for (const auto& extra : host.extra_lines) {
    w.line(LineCategory::kOther, extra);
  }
  w.separator();
  return w.stats();
}

}  // namespace

std::string emit_router(const RouterConfig& router) {
  std::string out;
  write_router(out, router);
  return out;
}

std::string emit_host(const HostConfig& host) {
  std::string out;
  write_host(out, host);
  return out;
}

LineStats router_line_stats(const RouterConfig& router) {
  std::string out;
  return write_router(out, router);
}

LineStats host_line_stats(const HostConfig& host) {
  std::string out;
  return write_host(out, host);
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
    out += kDeviceMarker;
    out += router->hostname;
    out += '\n';
    write_router(out, *router);
  }
  for (const HostConfig* host : canonical.hosts) {
    out += kDeviceMarker;
    out += host->hostname;
    out += '\n';
    write_host(out, *host);
  }
  return out;
}

}  // namespace confmask
