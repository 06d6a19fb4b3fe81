// The end-to-end ConfMask pipeline (paper Fig 3) and its strawman
// baselines.
//
// run_confmask() = preprocess → Step 1 (topology anonymization) →
// Step 2.1 (Algorithm 1 route equivalence) → Step 2.2 (fake hosts +
// Algorithm 2 route anonymity) → verification. The strawman variants swap
// Step 2.1 for the §4.3 baselines:
//  * Strawman 1 — deny every real host prefix on every fake link end in a
//    single pass (fast, pattern-revealing, heavy on config lines);
//  * Strawman 2 — traceroute-driven: per host pair, find the divergent hop
//    closest to the destination and add one filter, then re-simulate;
//    repeat to fixpoint (slow — this is the re-simulation cost §5.4 talks
//    about).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/config/model.hpp"
#include "src/core/topology_anonymization.hpp"
#include "src/routing/dataplane.hpp"
#include "src/util/ipv4.hpp"

namespace confmask {

/// A run's parameters. The worker-thread count is process-global, not one
/// of them: see ThreadPool::configure and the CONFMASK_JOBS variable.
struct ConfMaskOptions {
  int k_r = 6;          ///< topology k-degree anonymity parameter
  int k_h = 2;          ///< fake hosts per real host (k_H)
  double noise_p = 0.1; ///< Algorithm 2 noise coefficient (paper uses 0.1)
  std::uint64_t seed = 1;
  FakeLinkCostPolicy cost_policy = FakeLinkCostPolicy::kMinCost;
  /// §9 network-scale obfuscation extension: number of fake ROUTERS to
  /// add before topology anonymization (0 = paper's base system).
  int fake_routers = 0;
  int links_per_fake_router = 2;
  /// Overrides for the fake-link /31 and fake-host /24 prefix pools
  /// (defaults: PrefixAllocator's pools). The guarded runner widens these
  /// on ResourceExhausted instead of failing the run.
  std::optional<Ipv4Prefix> link_pool;
  std::optional<Ipv4Prefix> host_pool;

  /// Watch mode replays a prior run's topology-stage output only when every
  /// decision input is provably identical, which includes every knob above.
  friend bool operator==(const ConfMaskOptions&,
                         const ConfMaskOptions&) = default;
};

/// The bounds every run's parameters must meet: k_r and k_h at least 1,
/// fake_routers and links_per_fake_router at least 0, noise_p in [0, 1]
/// (NaN refused). Returns the first bound broken, as a message naming its
/// field ("k_r must be at least 1"), or nullopt when all hold.
[[nodiscard]] std::optional<std::string> option_error(
    const ConfMaskOptions& options);

/// Which Step-2.1 implementation the pipeline uses.
enum class EquivalenceStrategy { kConfMask, kStrawman1, kStrawman2 };

/// The strategy's name in the cache key: "confmask", "strawman1" or
/// "strawman2".
[[nodiscard]] const char* to_string(EquivalenceStrategy strategy);

struct PipelineStats {
  std::size_t fake_intra_links = 0;
  std::size_t fake_inter_links = 0;
  std::size_t fake_hosts = 0;
  int equivalence_iterations = 0;
  int equivalence_filters = 0;
  int anonymity_filters = 0;
  int anonymity_rollbacks = 0;
  /// Watch mode (patch_mode.hpp): stages that reused a prior run's
  /// PatchContext, and stages where a context was offered but the stage's
  /// reuse proof failed (full rebuild).
  int patched_stages = 0;
  int patch_fallbacks = 0;
  /// Watch mode: Algorithm 1 replayed the patch base's filters instead of
  /// scanning FIB columns, and Algorithm 2 replayed the patch base's edit
  /// log instead of running its noise pass and rollback rounds.
  bool equivalence_replayed = false;
  bool anonymity_replayed = false;
  std::uint64_t simulations = 0;  ///< simulation jobs (paper §5.4 cost unit)
  double seconds = 0.0;           ///< end-to-end wall-clock
};

/// What a run produced. It holds no data plane: a path metric simulates
/// what it measures (simulated_data_plane in metrics.hpp), which the
/// incremental-build invariant makes equal to what the run checked.
struct PipelineResult {
  ConfigSet anonymized;
  PipelineStats stats;
  std::vector<std::string> fake_hosts;
  std::vector<std::string> fake_routers;  ///< node-addition extension
  /// True iff the anonymized network delivers exactly the original paths
  /// between every ordered pair of real hosts (functional equivalence
  /// verified by simulation, not assumed from the SFE proof; see
  /// OriginalIndex::compare_real_flows).
  bool functionally_equivalent = false;
  bool equivalence_converged = false;
  /// Fault injection only (faults::kVerificationDiverge): the real flow
  /// the gate treated as undelivered. Divergence reports drop it too.
  std::optional<FlowKey> injected_undelivered_flow;
};

/// Runs the full pipeline with the chosen Step-2.1 strategy.
PipelineResult run_pipeline(const ConfigSet& original,
                            const ConfMaskOptions& options,
                            EquivalenceStrategy strategy);

struct PatchContext;
struct PatchCapture;
class OriginalIndex;
class Simulation;

/// The preprocessing stage's output (paper Fig 3): the original network
/// simulated once and snapshotted. It depends only on the originals and
/// the patch base, never on what the guarded runner's retry ladder changes
/// (seed, k_R, prefix pools), so one Preprocessed serves every attempt of
/// a run. Every attempt's PipelineStats include its cost.
struct Preprocessed {
  std::shared_ptr<const Simulation> sim;
  std::shared_ptr<const OriginalIndex> index;
  /// Watch mode: `sim` was seeded from the patch base, whose originals
  /// therefore differ from these only by filters.
  bool seeded = false;
  /// Watch mode: the diff from the patch base's originals to these, which
  /// every later reuse proof of the run reads. Filter-only when `seeded`.
  ConfigSetDiff diff;
  std::uint64_t simulations = 0;
  double seconds = 0.0;
};

/// Runs the preprocessing stage (span "preprocess"). A non-null patch base
/// seeds the simulation when the originals diff filter-only and — absent
/// packet-ACL changes — splices its index instead of rebuilding it. This
/// is the one bundle diff of a patched run.
[[nodiscard]] Preprocessed preprocess(const ConfigSet& original,
                                      const PatchContext* patch_base);

/// One pipeline attempt over `preprocessed`, which must come from
/// preprocess(original, patch_base). Watch mode (patch_mode.hpp,
/// DESIGN.md §14): `patch_base`, when non-null, offers a prior run's stage
/// state: preprocess, Step 1, Algorithm 1 and Algorithm 2 each reuse it
/// iff the proof for that stage holds on the preprocess diff, and fall
/// back to a from-scratch build otherwise — output bytes are identical
/// either way, only stats.patched_stages / patch_fallbacks and the
/// per-stage reuse counters move. `patch_capture`, when non-null, collects
/// this run's stage state, sharing the preprocess simulation and index;
/// pass it to finish_capture AFTER this returns to obtain the context for
/// the next cycle.
PipelineResult run_pipeline(const ConfigSet& original,
                            const Preprocessed& preprocessed,
                            const ConfMaskOptions& options,
                            EquivalenceStrategy strategy,
                            const PatchContext* patch_base,
                            PatchCapture* patch_capture);

inline PipelineResult run_confmask(const ConfigSet& original,
                                   const ConfMaskOptions& options = {}) {
  return run_pipeline(original, options, EquivalenceStrategy::kConfMask);
}
inline PipelineResult run_strawman1(const ConfigSet& original,
                                    const ConfMaskOptions& options = {}) {
  return run_pipeline(original, options, EquivalenceStrategy::kStrawman1);
}
inline PipelineResult run_strawman2(const ConfigSet& original,
                                    const ConfMaskOptions& options = {}) {
  return run_pipeline(original, options, EquivalenceStrategy::kStrawman2);
}

}  // namespace confmask
