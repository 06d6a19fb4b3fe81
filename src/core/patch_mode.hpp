// Watch mode: incremental re-anonymization on config diffs (DESIGN.md §14).
//
// A watch cycle anonymizes a bundle that differs from a previously
// anonymized one by a small edit. A PatchContext captured from the prior
// run snapshots every point where the pipeline pays a from-scratch cost:
//
//  * the stage-entry simulations — preprocess (the original network),
//    Algorithm 1 entry (post-Step-1 configs with the fake hosts) and
//    Algorithm 2 entry (Algorithm 1's final simulation) — each as a stable
//    copy of the stage-entry configs plus the simulation over them; the
//    last two share one topology object;
//  * the preprocessing OriginalIndex (shared FIB and flow columns);
//  * the topology-anonymization stage output: the post-Step-1 configs
//    together with the RNG and prefix-allocator state the stage left
//    behind;
//  * Algorithm 2's decisions: its effective filter edits in order, with the
//    RNG state at stage entry;
//  * whether the run's verification gate passed.
//
// On the next run, reuse is decided per snapshot, each time by PROVING the
// snapshot's inputs unchanged — never by assuming it:
//
//  * a stage simulation is seeded through the incremental constructor iff
//    the stage-entry diff (diff_config_sets) is filter-only, with the
//    diff's conservative dirty set;
//  * the OriginalIndex is spliced (flow columns toward dirty destinations
//    re-walked, the rest shared by pointer) iff the diff is additionally
//    free of packet-ACL changes — ACLs reshape data-plane flows without
//    contributing dirty prefixes;
//  * the topology stage is replayed from the snapshot (graft_topology:
//    append the same fake interfaces / networks / neighbors, restore the
//    RNG and allocator) iff the diff is filter-only, the effective options
//    are IDENTICAL (the RNG stream and fake-link pricing depend on every
//    knob) and no input the stage reads — device roster, interface
//    surface, first-interface passthrough lines — moved;
//  * Algorithm 2 starts from Algorithm 1's final simulation and is
//    replayed from the edit log (replay_route_anonymity) iff that
//    simulation shares the anonymity snapshot's topology (Algorithm 1 was
//    seeded from the equivalence snapshot), the stage-entry diff against
//    the anonymity snapshot is filter-only, the options and the RNG state
//    at stage entry are identical, the entry diff's dirty prefixes overlap
//    no fake-host LAN, and no changed device denies a fake-host LAN in
//    either version (anonymity_replayable). Every fake-host FIB column,
//    all the stage reads, then equals the captured run's, so every draw
//    and every rollback repeats;
//  * the verification gate skips a destination whose original flow column
//    is the context index's and whose final FIB column holds the anonymity
//    snapshot's entries, when the context's run passed its gate
//    (OriginalIndex::compare_real_flows).
//
// Any condition that fails falls back to the from-scratch path for that
// snapshot (fail closed — reuse is an optimization, never a semantic
// input). All pipeline DECISIONS (filter placement, RNG stream, retry
// ladder) are either replayed on the current configs or replayed from a
// state proven equal, so patched output is byte-identical to a cold run by
// construction; only the per-stage span counters (simulations,
// destinations_reused etc.) may differ, mirroring the existing
// `incremental_simulation` precedent (cache_key.hpp keys neither).
//
// Patch mode is active only when options.incremental_simulation is set:
// the serial baseline keeps the seed's exact build sequence.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/config/diff.hpp"
#include "src/config/model.hpp"
#include "src/core/confmask.hpp"
#include "src/core/original_index.hpp"
#include "src/core/route_anonymity.hpp"
#include "src/core/stage_seed.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {

class Simulation;

/// One reuse point: the stage-entry configs (owned, address-stable) and
/// the simulation built over them. `configs` is declared before `sim` so
/// the simulation's internal config pointer never outlives its target.
struct PatchSnapshot {
  std::shared_ptr<const ConfigSet> configs;
  std::shared_ptr<const Simulation> sim;

  [[nodiscard]] bool valid() const {
    return configs != nullptr && sim != nullptr;
  }
};

/// The topology-anonymization stage output of one run: the configs as the
/// stage left them plus the RNG / allocator state it consumed up to. Valid
/// only when the run added no fake routers — only then are the pre-stage
/// configs exactly PatchContext::original.configs.
struct TopologyPatch {
  std::shared_ptr<const ConfigSet> result;  ///< configs after Step 1
  Rng rng{0};                               ///< RNG state after Step 1
  PrefixAllocator allocator;                ///< allocator state after Step 1
  TopologyAnonymizationOutcome outcome;
  bool valid = false;
};

/// Algorithm 2 of one run: its decisions and the RNG state they drew
/// from. Valid only when the stage ran over an entry simulation.
struct AnonymityPatch {
  AnonymityLog log;
  Rng rng{0};  ///< RNG state at stage entry
  bool valid = false;
};

/// Everything a later run can reuse from one pipeline execution.
struct PatchContext {
  PatchSnapshot original;     ///< preprocess: the submitted bundle
  PatchSnapshot equivalence;  ///< Algorithm 1 entry (post Step 1)
  PatchSnapshot anonymity;    ///< Algorithm 2 entry (post fake hosts)
  /// Preprocessing snapshot of the run (self-contained: no pointer into
  /// a ConfigSet).
  std::shared_ptr<const OriginalIndex> index;
  /// Step-1 stage output, replayable via graft_topology.
  TopologyPatch topology;
  /// Algorithm 2's decisions, replayable via replay_route_anonymity.
  AnonymityPatch anonymity_replay;
  /// The options the run executed with. Topology replay requires equality:
  /// every knob feeds the stage's RNG stream, pricing or pool choice.
  ConfMaskOptions options;
  /// The run's verification gate passed: every real flow of its output
  /// matched `index`. Only then may a later gate skip destinations on its
  /// word.
  bool verified = false;
};

/// Raw material collected DURING a pipeline run: stage-entry config clones
/// plus live handles to the simulations the stages actually used. The live
/// simulations reference configs owned by the (mutating) pipeline, so they
/// must be re-based before they can outlive the run — see finish_capture.
struct PatchCapture {
  struct Stage {
    std::shared_ptr<const ConfigSet> configs;  ///< clone taken at stage entry
    std::shared_ptr<const Simulation> live;    ///< stage's entry simulation
  };
  /// In (optional): the caller's own immutable copy of the bundle it runs.
  /// When it is the very object passed to run_pipeline as the original,
  /// `original.configs` shares it instead of cloning the bundle.
  std::shared_ptr<const ConfigSet> shared_original;
  Stage original;
  Stage equivalence;
  Stage anonymity;
  std::shared_ptr<const OriginalIndex> index;
  TopologyPatch topology;
  AnonymityPatch anonymity_replay;
  ConfMaskOptions options;
  bool verified = false;

  /// Clears what a run collected; `shared_original` is input and stays.
  void reset() {
    original = {};
    equivalence = {};
    anonymity = {};
    index = nullptr;
    topology = {};
    anonymity_replay = {};
    options = {};
    verified = false;
  }
};

/// Re-bases each captured stage onto its cloned configs (an empty-delta
/// incremental rebuild: every column aliased, no recomputation) and drops
/// the live handles, yielding a self-contained context safe to hold across
/// jobs. Call AFTER the pipeline returns, outside its trace spans, so the
/// cold run's artifacts are byte-identical whether or not it was captured.
/// Returns null when nothing usable was captured.
[[nodiscard]] std::shared_ptr<const PatchContext> finish_capture(
    const PatchCapture& capture);

/// The reuse decision for one stage: diffs `configs` (the stage's current
/// entry state) against the snapshot and, when the diff is filter-only,
/// returns a simulation seeded from the snapshot through the incremental
/// constructor with the mapped dirty set. Returns null — caller builds
/// from scratch — on any structural difference, an unknown device, or an
/// invalid snapshot.
[[nodiscard]] std::shared_ptr<Simulation> seed_simulation(
    const ConfigSet& configs, const PatchSnapshot& snapshot);

/// Algorithm 2's replay decision. `entry` is the stage's entry simulation
/// over `configs` (Algorithm 1's final one) and `entry_diff` the
/// filter-only diff from context.anonymity's configs to `configs`;
/// `options`, `rng` and `fake_hosts` are the stage's. True iff the context
/// holds a log, `entry` shares context.anonymity's topology object (both
/// descend from the equivalence snapshot's, so the log's ids mean the
/// same), the options and RNG state equal the captured run's, no dirty
/// prefix of `entry_diff` overlaps a fake-host LAN (so every fake-host FIB
/// column equals the captured run's), and no changed device carries a
/// deny entry for a fake-host LAN in either version (so every filter edit
/// takes effect exactly as it did).
[[nodiscard]] bool anonymity_replayable(
    const PatchContext& context, const ConfMaskOptions& options,
    const Rng& rng, const ConfigSet& configs, const ConfigSetDiff& entry_diff,
    const Simulation& entry, const std::vector<std::string>& fake_hosts);

/// The preprocess-stage reuse decision against the context's `original`
/// snapshot, carrying everything that stage can exploit beyond the seeded
/// simulation.
struct OriginalReusePlan {
  /// Seeded simulation over the current originals, or null (structural
  /// diff / invalid snapshot — nothing below is meaningful then).
  std::shared_ptr<Simulation> sim;
  /// True when the diff had no packet-ACL change, i.e. the context's
  /// OriginalIndex may be spliced with `dirty` instead of rebuilt.
  bool index_reusable = false;
  /// Union of the diff's per-device dirty prefixes.
  std::vector<Ipv4Prefix> dirty;
};

[[nodiscard]] OriginalReusePlan plan_original_reuse(
    const ConfigSet& configs, const PatchContext& context);

/// Replays the context's topology-anonymization output onto `configs`
/// (the CURRENT pipeline's pre-Step-1 state): appends exactly the fake
/// interfaces, protocol coverage and eBGP neighbors the captured stage
/// appended, and hands back the RNG / allocator state to resume from.
/// The caller must already have proven the diff vs the context's originals
/// filter-only and the effective options identical; this function verifies
/// the remaining stage inputs (device roster alignment, interface counts,
/// first-interface passthrough lines — fake interfaces clone those) and
/// returns false without touching anything when any check fails.
[[nodiscard]] bool graft_topology(ConfigSet& configs,
                                  const PatchContext& context, Rng& rng,
                                  PrefixAllocator& allocator,
                                  TopologyAnonymizationOutcome& outcome);

}  // namespace confmask
