// Configuration text emission with per-category line accounting.
//
// The paper's configuration-utility metric U_C = 1 − N_l / P_l and the
// Table 3 breakdown (#added routing-protocol lines / #added filter lines /
// #added interface lines) are defined over configuration text lines. The
// emitter therefore tags every line it writes with a category, and both the
// text and the counts come from the same single pass, so they can never
// disagree.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/config/model.hpp"

namespace confmask {

/// Category of an emitted configuration line, matching Table 3's columns.
enum class LineCategory {
  kHostname,   ///< `hostname X`
  kInterface,  ///< `interface`, `ip address`, `ip ospf cost`, ...
  kProtocol,   ///< `router ospf/rip/bgp`, `network`, `neighbor remote-as`
  kFilter,     ///< `distribute-list`, `neighbor ... prefix-list`, `ip prefix-list`
  kOther,      ///< passthrough lines outside known blocks
};

/// Line counts per category (comment/"!" separators excluded, as in the
/// paper's line accounting).
struct LineStats {
  std::size_t hostname = 0;
  std::size_t interface = 0;
  std::size_t protocol = 0;
  std::size_t filter = 0;
  std::size_t other = 0;

  [[nodiscard]] std::size_t total() const {
    return hostname + interface + protocol + filter + other;
  }

  LineStats& operator+=(const LineStats& rhs);
  friend LineStats operator-(LineStats lhs, const LineStats& rhs);
};

/// Emits a router configuration as Cisco-IOS-like text.
[[nodiscard]] std::string emit_router(const RouterConfig& router);

/// Emits a host configuration.
[[nodiscard]] std::string emit_host(const HostConfig& host);

/// Line statistics for a single device, consistent with emit_*().
[[nodiscard]] LineStats router_line_stats(const RouterConfig& router);
[[nodiscard]] LineStats host_line_stats(const HostConfig& host);

/// Aggregate statistics over a whole configuration set.
[[nodiscard]] LineStats config_set_line_stats(const ConfigSet& configs);

/// Total emitted line count of a configuration set (the paper's P_l).
[[nodiscard]] std::size_t config_set_total_lines(const ConfigSet& configs);

/// Line counts of a network before and after anonymization: what Table 3,
/// U_C and N_l read. Emits both bundles, so only reports pay for it, not
/// the pipeline.
struct BundleLineStats {
  LineStats original;
  LineStats anonymized;

  /// Lines injected, N_l.
  [[nodiscard]] std::size_t added() const {
    return anonymized.total() - original.total();
  }
};
[[nodiscard]] BundleLineStats bundle_line_stats(const ConfigSet& original,
                                                const ConfigSet& anonymized);

/// Marker line opening each device in the canonical bundle format
/// ("!>> device <hostname>"). Starts with "!" so it reads as a comment to
/// every config-line consumer (count_config_lines skips it).
inline constexpr std::string_view kDeviceMarker = "!>> device ";

/// The whole network as ONE deterministic byte string: routers sorted by
/// hostname, then hosts sorted by hostname, each preceded by its
/// kDeviceMarker line and emitted by emit_router/emit_host. This is the
/// serving layer's canonical form — cache keys are hashes of it, cached
/// artifacts store it, and the request protocol ships it — so its bytes
/// must be a pure function of the ConfigSet contents (no ordering leaks
/// from the filesystem or the client). parse_config_set (parse.hpp)
/// inverts it; emit → parse → emit is byte-stable (tested).
[[nodiscard]] std::string canonical_config_set_text(const ConfigSet& configs);

/// The `configs` with devices reordered into canonical order (routers
/// sorted by hostname, hosts sorted by hostname). The pipeline's
/// randomized tie-breaks see device order, so cached runs execute on the
/// canonical order — this is what makes one cache key correspond to one
/// byte-exact artifact regardless of how the submitter enumerated files.
[[nodiscard]] ConfigSet canonicalize(ConfigSet configs);

/// The devices of `configs` in canonical order, by pointer: canonicalize()
/// without copying a device. Valid while `configs` is unchanged.
struct CanonicalOrder {
  std::vector<const RouterConfig*> routers;
  std::vector<const HostConfig*> hosts;
};
[[nodiscard]] CanonicalOrder canonical_order(const ConfigSet& configs);

}  // namespace confmask
