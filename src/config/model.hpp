// Structured model of Cisco-IOS-like device configurations.
//
// This is the data that ConfMask anonymizes. The model deliberately covers
// exactly the feature set the paper's pipeline manipulates — interfaces,
// OSPF / RIP / BGP processes, distribute-list route filters backed by
// `ip prefix-list` definitions — and passes every other line through
// verbatim (`extra_lines`), which is what lets the §2.3 case-study QoS
// configuration survive anonymization untouched.
//
// Invariants the anonymizer relies on:
//  * anonymization only ever APPENDS to these structures (new interfaces,
//    new `network` statements, new filters); it never modifies or removes
//    an existing element, mirroring the paper's "only new configuration
//    lines are added" guarantee;
//  * the emitter (emit.hpp) produces one configuration line per model
//    element, so line-count metrics (U_C, Table 3) are computed on real
//    emitted text.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/util/ipv4.hpp"

namespace confmask {

/// One `ip prefix-list NAME seq N {permit|deny} P [le L] [ge G]` entry.
struct PrefixListEntry {
  int seq = 0;
  bool permit = false;
  Ipv4Prefix prefix;
  std::optional<int> le;
  std::optional<int> ge;

  /// First-match semantics for a single entry.
  [[nodiscard]] bool matches(const Ipv4Prefix& candidate) const;

  friend bool operator==(const PrefixListEntry&,
                         const PrefixListEntry&) = default;
};

/// A named prefix list; matching follows Cisco first-match-wins with an
/// implicit deny-all when no entry matches.
struct PrefixList {
  std::string name;
  std::vector<PrefixListEntry> entries;

  /// True if the list permits `candidate` (no match => deny).
  [[nodiscard]] bool permits(const Ipv4Prefix& candidate) const;

  /// Appends a deny entry (sequence number auto-assigned).
  void add_deny(const Ipv4Prefix& prefix);
  /// Appends a permit-anything terminal entry if not already present.
  void add_permit_all();

  [[nodiscard]] int next_seq() const;

  friend bool operator==(const PrefixList&, const PrefixList&) = default;
};

/// One `access-list N {permit|deny} ip SRC WILD DST WILD` entry.
struct AclEntry {
  bool permit = false;
  Ipv4Prefix source;       ///< /0 == any
  Ipv4Prefix destination;  ///< /0 == any

  [[nodiscard]] bool matches(const Ipv4Prefix& src,
                             const Ipv4Prefix& dst) const;

  friend bool operator==(const AclEntry&, const AclEntry&) = default;
};

/// A numbered packet-filter ACL: first match wins, implicit deny-all.
struct AccessList {
  int number = 100;
  std::vector<AclEntry> entries;

  [[nodiscard]] bool permits(const Ipv4Prefix& src,
                             const Ipv4Prefix& dst) const;

  friend bool operator==(const AccessList&, const AccessList&) = default;
};

/// A single L3 interface.
struct InterfaceConfig {
  std::string name;
  std::optional<Ipv4Address> address;
  int prefix_length = 0;  ///< meaningful only when `address` is set
  std::optional<int> ospf_cost;
  std::string description;
  bool shutdown = false;
  /// `ip access-group N in`: packets ENTERING this interface are filtered
  /// by access list N (a data-plane drop, not a routing filter).
  std::optional<int> access_group_in;
  std::vector<std::string> extra_lines;  ///< verbatim passthrough (QoS, ...)

  /// The connected prefix of this interface; requires `address`.
  [[nodiscard]] Ipv4Prefix prefix() const;

  /// Field-wise equality. Equal structs emit identical configuration text
  /// (the emitter is a pure function of these fields), which is what lets
  /// the diff front end compare models instead of emissions.
  friend bool operator==(const InterfaceConfig&,
                         const InterfaceConfig&) = default;
};

/// `distribute-list prefix NAME in IFACE` under an IGP process: routes to
/// destinations denied by the prefix list are not installed when learned
/// via `interface`.
struct DistributeList {
  std::string prefix_list;
  std::string interface;

  friend bool operator==(const DistributeList&,
                         const DistributeList&) = default;
};

struct OspfNetwork {
  Ipv4Prefix prefix;
  int area = 0;

  friend bool operator==(const OspfNetwork&, const OspfNetwork&) = default;
};

struct OspfConfig {
  int process_id = 1;
  std::vector<OspfNetwork> networks;
  std::vector<DistributeList> distribute_lists;
  std::vector<std::string> extra_lines;

  /// True if an interface address is covered by some `network` statement.
  [[nodiscard]] bool covers(Ipv4Address addr) const;

  friend bool operator==(const OspfConfig&, const OspfConfig&) = default;
};

struct RipConfig {
  int version = 2;
  std::vector<Ipv4Address> networks;  ///< classful `network` statements
  std::vector<DistributeList> distribute_lists;
  std::vector<std::string> extra_lines;

  [[nodiscard]] bool covers(Ipv4Address addr) const;
  /// Adds the classful `network` statement for `addr`, once.
  void cover(Ipv4Address addr);

  friend bool operator==(const RipConfig&, const RipConfig&) = default;
};

/// One `neighbor A.B.C.D ...` peer. `prefix_lists_in` are inbound
/// `neighbor X prefix-list NAME in` filters: routes denied by any list are
/// not accepted from this peer.
struct BgpNeighbor {
  Ipv4Address address;
  int remote_as = 0;
  std::vector<std::string> prefix_lists_in;

  friend bool operator==(const BgpNeighbor&, const BgpNeighbor&) = default;
};

struct BgpConfig {
  int local_as = 0;
  std::vector<Ipv4Prefix> networks;  ///< advertised prefixes
  std::vector<BgpNeighbor> neighbors;
  std::vector<std::string> extra_lines;

  [[nodiscard]] BgpNeighbor* find_neighbor(Ipv4Address addr);
  [[nodiscard]] const BgpNeighbor* find_neighbor(Ipv4Address addr) const;

  friend bool operator==(const BgpConfig&, const BgpConfig&) = default;
};

/// `ip route PREFIX MASK NEXT-HOP`: a static route. Statics beat IGP
/// routes of the same prefix length (administrative distance 1) and
/// participate in longest-prefix matching against protocol routes.
struct StaticRoute {
  Ipv4Prefix prefix;
  Ipv4Address next_hop;

  friend bool operator==(const StaticRoute&, const StaticRoute&) = default;
};

/// A router's full configuration.
struct RouterConfig {
  std::string hostname;
  std::vector<InterfaceConfig> interfaces;
  std::optional<OspfConfig> ospf;
  std::optional<RipConfig> rip;
  std::optional<BgpConfig> bgp;
  std::vector<StaticRoute> static_routes;
  std::vector<PrefixList> prefix_lists;
  std::vector<AccessList> access_lists;
  std::vector<std::string> extra_lines;  ///< unknown top-level lines

  [[nodiscard]] InterfaceConfig* find_interface(std::string_view name);
  [[nodiscard]] const InterfaceConfig* find_interface(
      std::string_view name) const;
  /// The interface whose connected prefix contains `addr`, if any.
  [[nodiscard]] const InterfaceConfig* interface_towards(
      Ipv4Address addr) const;
  [[nodiscard]] PrefixList* find_prefix_list(std::string_view name);
  /// Returns the named prefix list, creating it if needed.
  PrefixList& ensure_prefix_list(const std::string& name);
  [[nodiscard]] const AccessList* find_access_list(int number) const;
  /// Fresh interface name not clashing with existing ones.
  [[nodiscard]] std::string fresh_interface_name() const;
  /// Appends an interface under a fresh name that copies the first
  /// interface's passthrough lines (L2 boilerplate etc.), so an added
  /// interface is not identifiable by its sparseness.
  InterfaceConfig& add_lookalike_interface(Ipv4Address address,
                                           int prefix_length,
                                           std::string description);
  /// Fresh prefix-list name with the given stem.
  [[nodiscard]] std::string fresh_prefix_list_name(
      std::string_view stem) const;

  /// Field-wise equality; implies byte-identical emission. The converse
  /// does not hold in general, so consumers using this to SKIP work treat
  /// inequality as "maybe changed" (conservative), never as proof of a
  /// textual difference.
  friend bool operator==(const RouterConfig&, const RouterConfig&) = default;
};

/// A host (end device) configuration: one interface plus default gateway.
struct HostConfig {
  std::string hostname;
  std::string interface_name = "eth0";
  Ipv4Address address;
  int prefix_length = 24;
  Ipv4Address gateway;
  std::vector<std::string> extra_lines;

  [[nodiscard]] Ipv4Prefix prefix() const {
    return Ipv4Prefix{address, prefix_length};
  }

  friend bool operator==(const HostConfig&, const HostConfig&) = default;
};

/// A complete network: the set of all device configurations. This is the
/// unit the anonymizer consumes and produces.
struct ConfigSet {
  std::vector<RouterConfig> routers;
  std::vector<HostConfig> hosts;

  [[nodiscard]] RouterConfig* find_router(std::string_view hostname);
  [[nodiscard]] const RouterConfig* find_router(
      std::string_view hostname) const;
  [[nodiscard]] HostConfig* find_host(std::string_view hostname);
  [[nodiscard]] const HostConfig* find_host(std::string_view hostname) const;

  /// Every prefix that appears anywhere in the configurations (interface
  /// networks, protocol `network` statements, advertised BGP networks,
  /// host LANs). Used to seed the PrefixAllocator.
  [[nodiscard]] std::vector<Ipv4Prefix> used_prefixes() const;
};

}  // namespace confmask
