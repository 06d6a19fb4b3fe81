// Preprocessing snapshot of the original network.
//
// The workflow's preprocessing step (paper Fig 3) simulates the input
// configurations once and records everything the later stages compare
// against: the original edge set (to recognize fake links), the original
// per-router FIBs (Algorithm 1's `DP[r̃, h̃_d]` lookup table), the original
// data plane (the functional-equivalence ground truth), and the real host
// roster (fake hosts are excluded from equivalence checks). It holds no IGP
// distances: fake-link pricing (Step 1, node addition) queries the few
// pairs it needs from the preprocessing Simulation itself.
#pragma once

#include <map>
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
  /// conservative dirty-prefix set. Everything destination-independent
  /// (edges, rosters) is copied from `previous`; FIB rows and data-plane
  /// flows are re-derived from `sim` only for destination hosts whose
  /// prefix overlaps `dirty` — the exact invalidation rule the
  /// incremental Simulation constructor applies to its FIB columns, so the
  /// result is bit-identical to OriginalIndex(sim). The ACL exclusion is
  /// load-bearing: an ACL edit reshapes data-plane flows for destinations
  /// that contribute NO dirty prefix (it can even resurrect flows absent
  /// before), so callers must fall back to a full snapshot when one is
  /// present (ConfigSetDiff::acls_changed).
  OriginalIndex(const Simulation& sim, const OriginalIndex& previous,
                const std::vector<Ipv4Prefix>& dirty);

  /// True if the (router, router) adjacency existed in the original
  /// network. Order-insensitive.
  [[nodiscard]] bool is_original_edge(const std::string& a,
                                      const std::string& b) const;

  /// True if `next_hop` was an original FIB next hop of `router` for
  /// destination host `host` (all by name).
  [[nodiscard]] bool is_original_next_hop(const std::string& router,
                                          const std::string& host,
                                          const std::string& next_hop) const;

  [[nodiscard]] const DataPlane& data_plane() const { return data_plane_; }
  [[nodiscard]] const std::set<std::string>& real_hosts() const {
    return real_hosts_;
  }
  [[nodiscard]] const std::set<std::string>& routers() const {
    return routers_;
  }

 private:
  std::set<std::pair<std::string, std::string>> edges_;  // (min, max) names
  std::map<std::pair<std::string, std::string>, std::set<std::string>> fib_;
  DataPlane data_plane_;
  std::set<std::string> real_hosts_;
  std::set<std::string> routers_;
};

}  // namespace confmask
