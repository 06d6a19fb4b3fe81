// The data plane: the collection of all host-to-host forwarding paths.
//
// This is the `DP` of the paper's formalization (Table 1): for every ordered
// pair of hosts, the set of paths traffic can take (several per pair under
// ECMP). Paths are stored as device-name sequences so that data planes of
// the original and the anonymized network are directly comparable — the
// anonymizer never renames a real device.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace confmask {

/// One forwarding path: (h_s, r_1, ..., r_n, h_d) as device names.
using Path = std::vector<std::string>;

/// Key: (source host, destination host).
using FlowKey = std::pair<std::string, std::string>;

/// Path enumeration caps, shared by the fast engine and the reference
/// oracle: both truncate a flow at these bounds with the same visit order,
/// or truncated flows would diverge for enumeration-order reasons alone.
inline constexpr std::size_t kMaxPathsPerFlow = 256;
inline constexpr int kMaxPathDepth = 64;  ///< routers past the first

/// One divergence between two data planes: on flow (source → destination),
/// device `router` forwards to different next hops in each plane. A flow
/// entirely missing from one plane is reported with `router` empty and the
/// missing side's next-hop list empty. This is the ⟨router, host, next-hop⟩
/// triple the fail-closed gate reports instead of silently publishing
/// non-equivalent configs.
struct DataPlaneDiffEntry {
  std::string source;
  std::string destination;
  std::string router;  ///< diverging device ("" = flow missing on one side)
  std::vector<std::string> lhs_next_hops;  ///< sorted, duplicate-free
  std::vector<std::string> rhs_next_hops;

  friend bool operator==(const DataPlaneDiffEntry&,
                         const DataPlaneDiffEntry&) = default;
};

struct DataPlane {
  /// Complete (delivered) paths per flow; each vector is sorted and
  /// duplicate-free. Flows with no complete path are absent.
  std::map<FlowKey, std::vector<Path>> flows;

  friend bool operator==(const DataPlane&, const DataPlane&) = default;

  /// Total number of paths across all flows.
  [[nodiscard]] std::size_t path_count() const;

  /// The data plane restricted to flows whose BOTH endpoints are in
  /// `hosts` — used to compare anonymized networks against originals over
  /// the real hosts only (fake-host flows are ignored by functional
  /// equivalence, Appendix A).
  [[nodiscard]] DataPlane restricted_to(
      const std::set<std::string>& hosts) const;

  /// True iff `restricted_to(hosts) == original`, without materializing
  /// the restricted copy (the verification gate runs this on every
  /// pipeline invocation; path vectors are large under ECMP).
  [[nodiscard]] bool equals_restricted(const DataPlane& original,
                                       const std::set<std::string>& hosts) const;

  /// Every host appearing as a flow endpoint.
  [[nodiscard]] std::set<std::string> hosts() const;

  /// The first `limit` divergences against `other` (this = lhs), in flow
  /// order: per differing flow, every device whose per-destination next-hop
  /// set differs, plus flows missing from one side. Empty ⟺ the planes are
  /// path-set equal.
  [[nodiscard]] std::vector<DataPlaneDiffEntry> diff(
      const DataPlane& other, std::size_t limit = 16) const;

  /// Fraction of flows of `original` whose path set is EXACTLY preserved
  /// in `anonymized` (the paper's P_U, Fig 8). Flows missing from
  /// `anonymized` count as not preserved.
  static double exactly_kept_fraction(const DataPlane& original,
                                      const DataPlane& anonymized);
};

}  // namespace confmask
