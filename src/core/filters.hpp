// Route-filter placement shared by Algorithm 1, Algorithm 2 and the
// strawman baselines.
//
// A "filter" in the paper is the abstract operation "on router r, deny
// routes to destination d learned from neighbor n". Concretely that is:
//  * an IGP distribute-list (`distribute-list prefix NAME in IFACE` backed
//    by an `ip prefix-list`) when the r-n link is an intra-AS adjacency, or
//  * a BGP inbound prefix list (`neighbor PEER prefix-list NAME in`) when
//    r-n is an eBGP session.
// One prefix list is maintained per scope (interface / peer); deny entries
// accumulate in front of a terminal permit-all, so multiple destinations
// share one binding — matching the paper's Listing 3 shape. Every edit goes
// through one FilterEditor per stage: it names routers and links by node
// and link id, and resolves each (router, link) scope — BGP or IGP, list
// name, prefix list, binding — once, so later edits on the scope do no
// name lookup.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/config/model.hpp"
#include "src/routing/topology.hpp"

namespace confmask {

/// Prefix-list name for the filter scoped to an IGP interface.
[[nodiscard]] std::string igp_filter_name(const std::string& interface);
/// Prefix-list name for the filter scoped to a BGP peer.
[[nodiscard]] std::string bgp_filter_name(Ipv4Address peer);

/// The config of each router of `topo`, by node id, resolved by hostname
/// once per stage (a watch-mode seeded simulation carries a snapshot's
/// topology, whose config_index need not index `configs`). Null where
/// `configs` lacks the router; valid until `configs.routers` is resized.
[[nodiscard]] std::vector<RouterConfig*> router_configs(ConfigSet& configs,
                                                        const Topology& topo);

/// The route-filter edits of one stage over a frozen topology.
class FilterEditor {
 public:
  /// `topo` must outlive the editor and `configs.routers` must not be
  /// resized while it lives (router_configs).
  FilterEditor(ConfigSet& configs, const Topology& topo);

  /// Adds "deny `dest` learned from the far end of link `link`" on router
  /// node `router` (an endpoint of the link), choosing IGP vs BGP scope
  /// from the router configuration, and binds the scope's list. Returns
  /// true if a new deny entry was added; false if it already existed, the
  /// router is not in `configs`, or no protocol carries the route over
  /// that link.
  bool add(int router, int link, const Ipv4Prefix& dest);

  /// Removes a deny entry for `dest` on the same scope. Returns true if an
  /// entry was removed. The binding and permit-all terminal stay.
  bool remove(int router, int link, const Ipv4Prefix& dest);

 private:
  struct Scope {
    std::string list_name;
    bool bgp = false;
    bool addable = false;  ///< a protocol carries routes over the link
    int list = -1;         ///< index in the router's prefix_lists, once known
    bool bound = false;
  };
  /// What add() knows of a list, from one scan when it first adds to it
  /// (or first after a remove): `denies` holds the prefixes of every deny
  /// entry (packed, sorted), `last_seq` is the highest seq of any entry
  /// but a permit-all, and `permit_all_last` says the list's one
  /// permit-all is its last entry. Every add keeps the state, so the next
  /// add appends without rescanning. A remove drops it: the next seq would
  /// be the maximum over the remaining entries.
  struct ListState {
    std::vector<std::uint64_t> denies;
    int last_seq = 0;
    bool permit_all_last = false;
  };
  Scope& scope(int router, int link);
  static ListState scan_list(const PrefixList& list);

  const Topology& topo_;
  std::vector<RouterConfig*> routers_;
  std::unordered_map<std::uint64_t, Scope> scopes_;
  /// Keyed by (router, list index): scopes on one multi-access interface
  /// share a list.
  std::unordered_map<std::uint64_t, ListState> lists_;
};

}  // namespace confmask
