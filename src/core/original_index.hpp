// Preprocessing snapshot of the original network.
//
// The workflow's preprocessing step (paper Fig 3) simulates the input
// configurations once and records everything the later stages compare
// against: the original adjacency (to recognize fake links), the original
// per-router FIBs (Algorithm 1's `DP[r̃, h̃_d]` lookup table), the original
// data plane (the functional-equivalence ground truth), and the real host
// roster (fake hosts are excluded from equivalence checks). It holds no IGP
// distances: fake-link pricing (Step 1, node addition) queries the few
// pairs it needs from the preprocessing Simulation itself.
//
// Queries take ORIGINAL node ids (a stage maps its topology onto them once,
// via original_ids). The index shares the simulation's topology, flat
// adjacency and FIB columns by shared_ptr; none points into a ConfigSet,
// so it outlives the Simulation and configs it was built from.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/routing/simulation.hpp"

namespace confmask {

class OriginalIndex {
 public:
  /// Snapshots `sim`, which must be a simulation of the ORIGINAL configs.
  explicit OriginalIndex(const Simulation& sim);

  /// Incremental re-snapshot for watch mode (DESIGN.md §14). `previous`
  /// must index the PRE-edit originals and `sim` the post-edit ones, where
  /// the edit is FILTER-ONLY (same devices, same topology, same link
  /// costs) with no packet-ACL change, and `dirty` is the diff's
  /// conservative dirty-prefix set. Only data-plane flows are spliced:
  /// re-extracted toward hosts whose prefix overlaps `dirty` (the rule the
  /// incremental Simulation applies to its FIB columns), copied from
  /// `previous` otherwise; the result equals OriginalIndex(sim). The ACL
  /// exclusion is load-bearing: an ACL edit reshapes flows for
  /// destinations that contribute NO dirty prefix, so callers must fall
  /// back to a full snapshot then (ConfigSetDiff::acls_changed).
  OriginalIndex(const Simulation& sim, const OriginalIndex& previous,
                const std::vector<Ipv4Prefix>& dirty);

  /// For every node of `current` (this network with fake nodes or links
  /// added), the original node id of the same name and kind, or -1.
  [[nodiscard]] std::vector<int> original_ids(const Topology& current) const;

  /// True if the two original routers were adjacent in the original
  /// network. Order-insensitive; false when either id is -1.
  [[nodiscard]] bool is_original_edge(int a, int b) const;

  /// True if `next_hop` was an original FIB next hop of `router` for
  /// destination host `host` (all original node ids; false when any is
  /// -1).
  [[nodiscard]] bool is_original_next_hop(int router, int host,
                                          int next_hop) const;

  /// The original topology the ids refer to.
  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] const DataPlane& data_plane() const { return data_plane_; }
  [[nodiscard]] const std::set<std::string>& real_hosts() const {
    return real_hosts_;
  }

 private:
  OriginalIndex(const Simulation& sim, DataPlane data_plane);

  std::shared_ptr<const Topology> topology_;
  std::shared_ptr<const FlatTopology> flat_;
  std::vector<std::shared_ptr<const Simulation::FibColumn>> columns_;
  DataPlane data_plane_;
  std::set<std::string> real_hosts_;
};

}  // namespace confmask
