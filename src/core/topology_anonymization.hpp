// Step 1 of the ConfMask workflow: topology anonymization (paper §4.2).
//
// The router graph is made k_R-degree anonymous by ADDING edges only
// (Liu–Terzi, edge-addition variant). For BGP networks the anonymization is
// two-level: each AS's internal router graph is anonymized independently,
// then the AS supergraph is anonymized, materializing each new AS-level
// edge as an eBGP-configured link between randomly chosen border routers.
//
// Every fake edge is materialized in the configurations exactly like a
// real one: a fresh /31, a matching interface pair with `description to-X`,
// protocol coverage (`network` statements), and — per the cost policy —
// `ip ospf cost` lines. The kMinCost policy implements SFE-LS condition 2
// per direction: OSPF cost applies to the outgoing interface and link
// costs may differ per side, so r's fake interface costs the original IGP
// distance D(r→r') and r''s costs D(r'→r). Then no strictly shorter path
// can appear in either direction; the equal-cost paths that do appear are
// rejected later by Algorithm 1. kDefault and kLarge reproduce the §3.2
// strawman cost choices for ablation.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/config/model.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {

class Simulation;

enum class FakeLinkCostPolicy {
  kMinCost,  ///< cost = original shortest-path distance (ConfMask, §5.2)
  kDefault,  ///< no cost line (strawman §3.2 option i / NetHide-like)
  kLarge,    ///< cost = 60000 (strawman §3.2 option ii)
};

/// The policy's wire name: "min_cost", "default" or "large".
[[nodiscard]] const char* to_string(FakeLinkCostPolicy policy);

/// The policy a wire name names; nullopt for any other text.
[[nodiscard]] std::optional<FakeLinkCostPolicy> parse_cost_policy(
    std::string_view name);

struct TopologyAnonymizationOutcome {
  /// Fake intra-AS links, by router hostnames.
  std::vector<std::pair<std::string, std::string>> intra_as_links;
  /// Fake inter-AS links (eBGP-configured), by router hostnames.
  std::vector<std::pair<std::string, std::string>> inter_as_links;
  [[nodiscard]] std::size_t total_links() const {
    return intra_as_links.size() + inter_as_links.size();
  }
};

/// Mutates `configs` in place (only appending). Under kMinCost each side
/// of every fake intra-AS link is priced with `network`'s IGP distance
/// from that side to the other, so `network` must simulate `configs` as
/// passed in (before any fake link); the other policies price nothing and
/// accept null.
TopologyAnonymizationOutcome anonymize_topology(ConfigSet& configs,
                                                const Simulation* network,
                                                int k_r,
                                                FakeLinkCostPolicy policy,
                                                Rng& rng,
                                                PrefixAllocator& allocator);

/// Materializes ONE fake link between routers `a` and `b` shaped like a
/// real one (also used by the NetHide baseline to build its virtual
/// topology). With `inter_as`, reciprocal eBGP neighbor statements are
/// added instead of IGP coverage. `cost_ab` and `cost_ba` are the IGP
/// distances a→b and b→a in the network the link is being added to; under
/// kMinCost a's interface costs `cost_ab` and b's costs `cost_ba` (pass
/// <= 0 to fall back to the default cost).
void materialize_fake_link(RouterConfig& a, RouterConfig& b,
                           FakeLinkCostPolicy policy, long cost_ab,
                           long cost_ba, PrefixAllocator& allocator,
                           bool inter_as);

}  // namespace confmask
