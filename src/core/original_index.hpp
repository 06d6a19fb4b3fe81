// Preprocessing snapshot of the original network.
//
// The workflow's preprocessing step (paper Fig 3) simulates the input
// configurations once and records everything the later stages compare
// against: the original adjacency (to recognize fake links), the original
// per-router FIBs (Algorithm 1's `DP[r̃, h̃_d]` lookup table), the original
// delivered paths (the functional-equivalence ground truth) and the real
// host roster (fake hosts are excluded from equivalence checks). It holds
// no IGP distances: fake-link pricing (Step 1, node addition) queries the
// few pairs it needs from the preprocessing Simulation itself.
//
// Queries take ORIGINAL node ids (a stage maps its topology onto them once,
// via original_ids). The delivered paths are node-id flow columns, one per
// destination host; names appear only when a report or the strawman asks
// for data_plane(). The index shares the simulation's topology, flat
// adjacency and FIB columns by shared_ptr, and its own flow columns with
// spliced successors; none points into a ConfigSet, so it outlives the
// Simulation and configs it was built from.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/routing/simulation.hpp"

namespace confmask {

class OriginalIndex;

/// A prior run whose verification gate passed (watch mode, DESIGN.md §14):
/// its index, and a simulation sharing the topology object its gate walked
/// whose real-host FIB columns hold what that gate walked (its Algorithm 2
/// entry snapshot: Algorithm 2 edits only fake-host prefixes).
struct VerifiedBase {
  const OriginalIndex* index = nullptr;
  const Simulation* sim = nullptr;
};

class OriginalIndex {
 public:
  /// Snapshots `sim`, which must be a simulation of the ORIGINAL configs.
  explicit OriginalIndex(const Simulation& sim);

  /// Incremental re-snapshot for watch mode (DESIGN.md §14). `previous`
  /// must index the PRE-edit originals and `sim` the post-edit ones, where
  /// the edit is FILTER-ONLY (same devices, same topology, same link
  /// costs) with no packet-ACL change, and `dirty` is the diff's
  /// conservative dirty-prefix set. Only flow columns are spliced:
  /// re-walked toward hosts whose prefix overlaps `dirty` (the rule the
  /// incremental Simulation applies to its FIB columns), shared by pointer
  /// with `previous` otherwise; the result equals OriginalIndex(sim). The
  /// ACL exclusion is load-bearing: an ACL edit reshapes flows for
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
  [[nodiscard]] const std::set<std::string>& real_hosts() const {
    return real_hosts_;
  }

  /// Per destination host (index host − router_count): the original
  /// delivered paths toward it, in original node ids.
  [[nodiscard]] const std::vector<
      std::shared_ptr<const Simulation::FlowColumn>>&
  flow_columns() const {
    return flows_;
  }

  /// Number of flows (ordered host pairs) with a delivered path.
  [[nodiscard]] std::size_t flow_count() const;

  /// The original data plane by device name, converted from the flow
  /// columns on each call: equal to extract_data_plane() of the original
  /// network, flow and path order included (Strawman 2 fixes flows in that
  /// order). For reports, tests and the strawman; the pipeline's own
  /// checks stay on ids.
  [[nodiscard]] DataPlane data_plane() const;

  struct FlowComparison {
    bool equal = true;
    /// Ordered pairs of real hosts walked and compared, and those proved
    /// equal without a walk (see VerifiedBase). On a pass the two sum to
    /// every ordered pair; on a failure both stop at the first mismatching
    /// destination.
    std::size_t real_flows_compared = 0;
    std::size_t real_flows_proved = 0;
  };

  /// The verification gate (DESIGN.md §7): whether `sim`, a simulation of
  /// this network after anonymization, delivers exactly the original path
  /// set for every ordered pair of real hosts. `sim`'s paths are mapped
  /// through original_ids, so a path over a fake node never matches, and
  /// an undelivered flow is an empty set. Walks one destination at a time
  /// over the pool, real sources only, and stops at the first mismatch.
  /// `undelivered` names one real flow to treat as undelivered in `sim`
  /// (the verification fault's injected divergence); its destination is
  /// always walked.
  ///
  /// With `base`, a destination d is proved instead of walked when this
  /// index's flow column for d is base.index's object (spliced clean) and
  /// `sim` shares base.sim's topology object and FIB column for d. A walk
  /// toward d reads only that topology, column d and the ACLs, and an ACL
  /// edit rebuilds the index; so the walk would repeat one the base's gate
  /// already matched against the same original column.
  [[nodiscard]] FlowComparison compare_real_flows(
      const Simulation& sim, const FlowKey* undelivered = nullptr,
      const VerifiedBase& base = {}) const;

 private:
  OriginalIndex(const Simulation& sim,
                std::vector<std::shared_ptr<const Simulation::FlowColumn>>
                    flows);

  std::shared_ptr<const Topology> topology_;
  std::shared_ptr<const FlatTopology> flat_;
  std::vector<std::shared_ptr<const Simulation::FibColumn>> columns_;
  std::vector<std::shared_ptr<const Simulation::FlowColumn>> flows_;
  std::set<std::string> real_hosts_;
};

}  // namespace confmask
