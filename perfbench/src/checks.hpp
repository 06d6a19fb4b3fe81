// Independent checks of a returned artifact, behind verified_share.
//
// Nothing here trusts the producer: the pipeline's own
// `functionally_equivalent` flag and its privacy metrics are never read.
//  * Functional equivalence: the ReferenceSimulation (the serial oracle
//    that shares no code with the fast engine) data planes of the original
//    and the anonymized configs must be equal over the real hosts. A
//    truncated path extraction on either side is unverified, not passed.
//  * Privacy: the benchmark computes the two-level degree classes itself
//    (each AS's router graph plus the AS supergraph; the flat router graph
//    for single-domain inputs). Every graph's smallest same-degree class
//    must be at least min(k_R, nodes of that graph) — k_degree_anonymize's
//    k_eff clamp — with k_R lowered to the relaxed value when a kRelaxKr
//    rung fired.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/config/model.hpp"

namespace perfbench {

struct CheckOutcome {
  bool equivalent = false;
  bool truncated = false;
  int achieved_k = 0;  ///< smallest same-degree class over all graphs
  int required_k = 0;  ///< smallest per-graph requirement
  bool private_ok = false;
  std::string detail;  ///< first reason for failing, empty when ok

  [[nodiscard]] bool ok() const {
    return equivalent && !truncated && private_ok;
  }
};

[[nodiscard]] CheckOutcome check_artifact(
    const confmask::ConfigSet& original,
    const confmask::ConfigSet& anonymized, int k_r);

/// Runs `check(i)` for every i in [0, count) on four threads and returns
/// the verdicts. A check that throws (an unparsable artifact) is a failed
/// verdict.
[[nodiscard]] std::vector<bool> check_all(
    std::size_t count, const std::function<bool(std::size_t)>& check);

/// k_R after the fallback rungs recorded in a diagnostics JSON document:
/// the last "RelaxKr" detail ("k_r 6 -> 5") wins; `requested` otherwise.
[[nodiscard]] int relaxed_k_r(const std::string& diagnostics_json,
                              int requested);

/// The checks' own test: anonymizes a small network, then confirms that
/// the artifact passes and that two deliberately broken copies fail — one
/// with every route-equivalence distribute-list deleted (equivalence
/// broken), one that returns the original configs unchanged (privacy
/// broken). False, with `detail`, when any verdict is wrong.
[[nodiscard]] bool checks_self_test(std::string* detail);

}  // namespace perfbench
