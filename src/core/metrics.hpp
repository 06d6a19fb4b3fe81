// The evaluation metrics of paper §7.1:
//  (a) route anonymity N_r — distinct routing paths between edge-router
//      pairs (Figs 5, 10–12, 15);
//  (b) route utility P_U — fraction of exactly-kept host-to-host paths
//      (Fig 8; provided by DataPlane::exactly_kept_fraction);
//  (c) topology anonymity k_d — minimum same-degree class size (Fig 6);
//  (d) topology utility — clustering coefficient (Fig 7);
//  (e) configuration utility U_C = 1 − N_l / P_l (Figs 10, 13–15).
#pragma once

#include "src/config/emit.hpp"
#include "src/config/model.hpp"
#include "src/routing/dataplane.hpp"

namespace confmask {

/// The data plane a path metric measures: `configs` simulated from scratch
/// and every flow walked, by device name. A pipeline result holds no data
/// plane, so readers of the original or anonymized paths call this.
[[nodiscard]] DataPlane simulated_data_plane(const ConfigSet& configs);

struct RouteAnonymityMetric {
  double average = 0.0;  ///< mean N_r over edge-router pairs with traffic
  int minimum = 0;       ///< min N_r
  std::size_t pairs = 0; ///< number of (ingress, egress) pairs observed
};

/// N_r: for every (ingress router, egress router) pair appearing in the
/// data plane, the number of DISTINCT router sequences among its paths.
[[nodiscard]] RouteAnonymityMetric route_anonymity_nr(const DataPlane& dp);

/// k-route anonymity actually achieved: the smallest number of paths
/// sharing one (ingress, egress) pair (Definition 3.2 holds for k up to
/// this value).
[[nodiscard]] int min_route_companions(const DataPlane& dp);

/// Minimum same-degree class size of the router graph (Definition 3.1
/// holds for k up to this value).
[[nodiscard]] int topology_min_degree_class(const ConfigSet& configs);

/// The two-level variant the paper defines for BGP networks (§4.2):
/// topology anonymity holds per AS (intra-AS degrees within each AS's
/// router graph) and on the AS supergraph. Returns the smallest
/// same-degree class across all of those graphs; equals the flat metric
/// for single-domain networks. Note the achievable k is capped by the
/// smallest AS size.
[[nodiscard]] int topology_min_degree_class_two_level(
    const ConfigSet& configs);

/// Average local clustering coefficient of the router graph.
[[nodiscard]] double topology_clustering(const ConfigSet& configs);

/// U_C = 1 − N_l / P_l with N_l = lines injected and P_l = total lines of
/// the anonymized configuration set.
[[nodiscard]] double config_utility(const LineStats& original,
                                    const LineStats& anonymized);

}  // namespace confmask
