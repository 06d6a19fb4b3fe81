// Watch mode: incremental re-anonymization on config diffs (DESIGN.md §14).
//
// A watch cycle anonymizes a bundle that differs from a previously
// anonymized one by a small edit. A PatchContext captured from the prior
// run keeps what each later reuse reads, and no copy of a stage's configs:
//
//  * the original bundle (the caller's own copy when it offers one) and
//    the preprocess simulation over it;
//  * Algorithm 1's entry simulation and its final one (Algorithm 2's
//    entry, kept whether or not Algorithm 2 runs) as column donors
//    (Simulation::column_donor: topology, distance vectors and FIB
//    columns, without configs or filter tables); the two share one
//    topology object;
//  * the preprocessing OriginalIndex (shared FIB and flow columns);
//  * node addition's and Step 1's output as records: the fake routers,
//    and per original router the interfaces, OSPF/RIP networks and eBGP
//    neighbors appended, with the RNG and prefix-allocator state Step 1
//    left behind;
//  * the fake hosts as (name, LAN, gateway) records;
//  * Algorithm 1's decisions: its filters in order and its iteration
//    count;
//  * Algorithm 2's decisions: its effective filter edits in order, with the
//    RNG state at stage entry;
//  * whether the run's verification gate passed.
//
// On the next run, reuse is decided per stage, each time by PROVING the
// stage's inputs unchanged — never by assuming it. One diff is computed,
// the preprocess diff between the context's originals and the current
// ones (diff_config_sets); every proof below reads it:
//
//  * the preprocess simulation is seeded through the incremental
//    constructor iff the diff is filter-only, with its conservative dirty
//    set, and the OriginalIndex is spliced (flow columns toward dirty
//    destinations re-walked, the rest shared by pointer) iff the diff is
//    additionally free of packet-ACL changes — ACLs reshape data-plane
//    flows without contributing dirty prefixes;
//  * Step 1 is grafted (graft_topology: append the recorded elements,
//    restore the RNG and allocator) iff the diff is filter-only, the
//    effective options are IDENTICAL (the RNG stream and fake-link pricing
//    depend on every knob) and no input the stage reads — device roster,
//    interface surface, first-interface passthrough lines — moved;
//  * Algorithm 1 is seeded from the equivalence donor with the diff's
//    dirty set when its entry configs differ from the captured run's
//    exactly where the originals differ: the diff is filter-only, Step 1
//    was grafted or node addition and Step 1 appended the recorded
//    elements again (topology_matches_capture), and the fake hosts match
//    the records. None of these stages adds a prefix list or a binding, so
//    the entry configs' dirty sets are the originals';
//  * a seeded Algorithm 1 is replayed from the record
//    (replay_route_equivalence) and its final simulation seeded from the
//    anonymity donor with the diff's dirty set iff no dirty prefix
//    overlaps a real host's prefix and no router the diff changed holds a
//    list named like one Algorithm 1 wrote on it (equivalence_replayable).
//    Every real destination's FIB column then equals the captured run's at
//    every iteration, so the stage decides alike, and each of those
//    columns in the final simulation is the donor's own object;
//  * Algorithm 2 starts from Algorithm 1's final simulation and is
//    replayed from the edit log (replay_route_anonymity), which hands that
//    simulation to verification unchanged, iff that
//    simulation shares the anonymity donor's topology (Algorithm 1 was
//    seeded from the equivalence donor), the options and the RNG state at
//    stage entry are identical, no dirty prefix of the diff overlaps a
//    fake-host LAN, and no router the diff or Algorithm 1 changed denies a
//    fake-host LAN or defines a list Algorithm 1 writes, in either version
//    (anonymity_replayable). Every fake-host FIB column, all the
//    stage reads, then equals the captured run's, so every draw and every
//    rollback repeats;
//  * the verification gate skips a destination whose original flow column
//    is the context index's and whose final FIB column is the anonymity
//    donor's, when the context's run passed its gate
//    (OriginalIndex::compare_real_flows).
//
// Any condition that fails falls back to the from-scratch path for that
// stage (fail closed — reuse is an optimization, never a semantic input).
// All pipeline DECISIONS (filter placement, RNG stream, retry ladder) are
// either replayed on the current configs or replayed from a state proven
// equal, so patched output is byte-identical to a cold run by
// construction; only the per-stage span counters (simulations,
// destinations_reused etc.) may differ, and cache_key.hpp does not key the
// patch base.
#pragma once

#include <memory>
#include <optional>
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

/// A run's original bundle and a simulation over it: the simulation reads
/// `configs`, or is a column donor.
struct PatchSnapshot {
  std::shared_ptr<const ConfigSet> configs;
  std::shared_ptr<const Simulation> sim;

  [[nodiscard]] bool valid() const {
    return configs != nullptr && sim != nullptr;
  }
};

/// What the stages before the fake hosts appended to one original router,
/// in order.
struct RouterAppends {
  std::vector<InterfaceConfig> interfaces;
  std::vector<OspfNetwork> ospf_networks;
  std::vector<Ipv4Address> rip_networks;
  std::vector<BgpNeighbor> bgp_neighbors;
};

/// What node addition and Step 1 appended to a run's originals.
struct TopologyAppends {
  std::vector<RouterAppends> routers;  ///< per original router, by index
  std::vector<RouterConfig> fake_routers;  ///< node addition's, whole
  std::vector<HostConfig> fake_hosts;      ///< node addition's, whole
};

/// The topology stages of one run: what they appended, plus the RNG /
/// allocator state Step 1 consumed up to. Valid only when the stages only
/// appended. Step 1 alone is graftable when node addition added nothing.
struct TopologyPatch {
  TopologyAppends appends;
  Rng rng{0};                 ///< RNG state after Step 1
  PrefixAllocator allocator;  ///< allocator state after Step 1
  TopologyAnonymizationOutcome outcome;
  bool valid = false;
};

/// One fake host as add_fake_hosts placed it. Its gateway router's side
/// (LAN interface, network statements) follows from these and from the
/// real host's gateway, which a filter-only diff does not move.
struct FakeHostRecord {
  std::string name;
  Ipv4Prefix lan;
  Ipv4Address gateway;

  friend bool operator==(const FakeHostRecord&,
                         const FakeHostRecord&) = default;
};

/// Algorithm 2 of one run: its decisions and the RNG state they drew
/// from. Valid only when the stage ran over an entry simulation.
struct AnonymityPatch {
  AnonymityLog log;
  Rng rng{0};  ///< RNG state at stage entry
  bool valid = false;
};

/// Everything a later run can reuse from one pipeline execution. It holds
/// one ConfigSet, the original.
struct PatchContext {
  PatchSnapshot original;  ///< preprocess: the submitted bundle
  /// Algorithm 1's entry simulation (post Step 1, with the fake hosts).
  std::shared_ptr<const Simulation> equivalence;
  /// Algorithm 1's final simulation (Algorithm 2's entry), also when
  /// Algorithm 2 did not run.
  std::shared_ptr<const Simulation> anonymity;
  /// Preprocessing snapshot of the run (self-contained: no pointer into
  /// a ConfigSet).
  std::shared_ptr<const OriginalIndex> index;
  /// Step-1 stage output, replayable via graft_topology.
  TopologyPatch topology;
  /// The fake hosts, in the order add_fake_hosts appended them.
  std::vector<FakeHostRecord> fake_hosts;
  /// Algorithm 1's decisions, its filters in the ids of the equivalence
  /// and anonymity simulations' topology; replayable via
  /// replay_route_equivalence.
  EquivalenceRecord equivalence_record;
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

/// Raw material collected DURING a pipeline run: a context whose
/// simulations are still the live ones the stages used. Those read configs
/// owned by the (mutating) pipeline, so they are made column donors before
/// they can outlive the run — see finish_capture.
struct PatchCapture {
  /// In (optional): the caller's own immutable copy of the bundle it runs.
  /// When it is the very object passed to run_pipeline as the original,
  /// the context shares it instead of cloning the bundle.
  std::shared_ptr<const ConfigSet> shared_original;
  PatchContext context;
  /// context.original.sim reads context.original.configs, so the finished
  /// context may keep it as it is.
  bool original_sim_reads_configs = false;

  /// Clears what a run collected; `shared_original` is input and stays.
  void reset() {
    context = {};
    original_sim_reads_configs = false;
  }
};

/// Freezes a capture into a self-contained context safe to hold across
/// jobs: the equivalence and anonymity simulations become column donors,
/// and so does the preprocess one unless it reads the context's original.
/// Nothing is re-simulated or re-indexed. Call AFTER the pipeline returns,
/// outside its trace spans. Returns null when nothing usable was captured.
[[nodiscard]] std::shared_ptr<const PatchContext> finish_capture(
    const PatchCapture& capture);

/// Seeds a simulation over `configs` from `snapshot` through the
/// incremental constructor, with the dirty prefixes of `diff` mapped onto
/// the snapshot's node ids. `diff` runs from the snapshot's originals to
/// `configs`, or to originals that `configs` extends only with appends
/// adding no prefix list or binding (Algorithm 1's entry). Returns null —
/// caller builds from scratch — when the diff is structural, names a
/// router the snapshot does not know, or the snapshot's config indexes do
/// not name the same devices in `configs`.
[[nodiscard]] std::shared_ptr<Simulation> seed_simulation(
    const ConfigSet& configs, const Simulation& snapshot,
    const ConfigSetDiff& diff);

/// The preprocess-stage reuse decision against the context's `original`
/// snapshot, carrying everything that stage can exploit beyond the seeded
/// simulation.
struct OriginalReusePlan {
  /// The diff from the context's originals to the current ones.
  ConfigSetDiff diff;
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

/// What node addition and Step 1 appended to `before` to make `after`, or
/// nullopt when `after` differs from `before` in more than appended
/// routers and hosts and appends to the interfaces, OSPF/RIP networks and
/// BGP neighbors of its routers.
[[nodiscard]] std::optional<TopologyAppends> topology_appends(
    const ConfigSet& before, const ConfigSet& after);

/// The last `count` hosts of `configs` — the fake hosts add_fake_hosts
/// appended — as records.
[[nodiscard]] std::vector<FakeHostRecord> fake_host_records(
    const ConfigSet& configs, std::size_t count);

/// Whether node addition and Step 1, run again over originals that diff
/// filter-only from the context's, appended what the context's records
/// hold (`appends`, from topology_appends), but for passthrough lines:
/// fake devices clone real ones', which a filter-only edit may change, and
/// which feed no dirty set.
[[nodiscard]] bool topology_matches_capture(const PatchContext& context,
                                            const TopologyAppends& appends);

/// Algorithm 1's replay decision, for a stage whose entry simulation
/// `entry` was seeded from the context's equivalence donor. `original` and
/// `original_diff` are this run's originals and the preprocess diff. True
/// iff the context holds an anonymity donor on `entry`'s topology object
/// (the entry configs matched the capture, so the record's ids mean the
/// same), the diff is filter-only, and
///  * no dirty prefix of the diff overlaps a real host's prefix, so every
///    real destination's entry column is the donor's object and every
///    router decides its prefix alike in both versions;
///  * no router the diff changed holds, in either version's originals, a
///    prefix list or binding named like a list Algorithm 1 wrote on that
///    router in the context's run: a permit placed ahead of such a list's
///    permit-all dirties nothing, yet would shadow Algorithm 1's deny
///    (anonymity_replayable's condition 4, applied to Algorithm 1).
/// Then the same filters, placed in the same order, leave every real
/// destination's FIB column equal to the captured run's at every
/// iteration, so the stage decides exactly the record (DESIGN.md §14), and
/// the captured final simulation seeded with the diff is exact for the
/// stage's final configs.
[[nodiscard]] bool equivalence_replayable(const PatchContext& context,
                                          const ConfigSet& original,
                                          const ConfigSetDiff& original_diff,
                                          const Simulation& entry);

/// Algorithm 2's replay decision. `entry` is the stage's entry simulation
/// (Algorithm 1's final one); `original` and `original_diff` are this
/// run's originals and the preprocess diff; `equivalence_filters` are this
/// run's Algorithm 1 filters; `options` and `rng` are the stage's. True
/// iff the context holds a log, `entry` shares the anonymity donor's
/// topology object (Algorithm 1 was seeded from the equivalence donor, so
/// the entry configs matched the capture and the log's ids mean the
/// same), the options and RNG state equal the captured run's, no dirty
/// prefix of the diff overlaps a fake-host LAN, and no router the diff
/// changed or whose Algorithm 1 filters differ from the captured run's
/// carries, in either version's originals, a deny entry for a fake-host
/// LAN or a list Algorithm 1 wrote on it in either run. Algorithm 1 only
/// denies real-host prefixes, so every fake-host FIB column equals the
/// captured run's and every filter edit takes effect exactly as it did.
[[nodiscard]] bool anonymity_replayable(
    const PatchContext& context, const ConfMaskOptions& options,
    const Rng& rng, const ConfigSet& original,
    const ConfigSetDiff& original_diff,
    const std::vector<EquivalenceFilter>& equivalence_filters,
    const Simulation& entry);

}  // namespace confmask
