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
// share one binding — matching the paper's Listing 3 shape. Edits name
// their router by node id and reach its config through a per-stage
// router_configs table, so an edit does no name lookup.
#pragma once

#include <string>
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

/// Adds "deny `dest` learned from the far end of `link`" on `router`, the
/// config of node `router_node` (an endpoint of `link`). Chooses IGP vs
/// BGP scope from the router configuration. Returns true if a new deny
/// entry was added, false if it already existed, `router` is null, or no
/// protocol carries the route over that link.
bool add_route_filter(RouterConfig* router, int router_node, const Link& link,
                      const Ipv4Prefix& dest);

/// Removes a previously added deny entry for `dest` on the same scope.
/// Returns true if an entry was removed. The binding and permit-all
/// terminal are left in place.
bool remove_route_filter(RouterConfig* router, int router_node,
                         const Link& link, const Ipv4Prefix& dest);

}  // namespace confmask
