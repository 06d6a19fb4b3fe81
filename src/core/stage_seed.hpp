// Seed/capture channel for Algorithm 1's FIRST full simulation (Algorithm
// 2 starts from Algorithm 1's final one).
//
// Watch mode (patch_mode.hpp, DESIGN.md §14) reuses prior work at two
// kinds of point. Wherever a stage would build a fresh Simulation from
// scratch, it may instead be handed one seeded through the incremental
// constructor from a previous run's stage-entry state. The incremental
// engine is verified bit-identical to a from-scratch build, and every
// DECISION the stage makes (filter placement, RNG draws, iteration order)
// still replays on the current configs — so a seeded stage produces
// byte-identical output, just without re-deriving clean FIB columns.
// And where a stage's decisions provably repeat a previous run's, the
// stage applies that run's record instead of deciding again
// (replay_route_equivalence, replay_route_anonymity).
//
// The same channel also works the other way: the stage publishes a shared
// handle to the simulation it actually used at stage entry, which the next
// watch cycle captures as its reuse base, and its decisions, which the
// next cycle replays or compares its own against.
#pragma once

#include <memory>
#include <vector>

namespace confmask {

class Simulation;

/// One filter Algorithm 1 added: on router `router`, deny destination host
/// `host` learned over link `link`, in the ids of the stage's topology.
struct EquivalenceFilter {
  int router = -1;
  int link = -1;
  int host = -1;

  friend bool operator==(const EquivalenceFilter&,
                         const EquivalenceFilter&) = default;
};

/// Algorithm 1's decisions in one run: every filter it added, in order,
/// and its iteration count.
struct EquivalenceRecord {
  std::vector<EquivalenceFilter> filters;
  int iterations = 0;
};

struct StageSeed {
  /// In: when non-null, the stage adopts this as its first simulation
  /// instead of constructing `Simulation(configs)`. Must be built over the
  /// exact configs the stage sees at entry. Consumed (moved from).
  std::shared_ptr<Simulation> initial;

  /// Out: the stage's entry simulation (seeded or freshly built), kept
  /// alive by this handle even after the stage's own iteration loop has
  /// replaced it. Null when the stage never built one.
  std::shared_ptr<const Simulation> entry_sim;

  /// Out: the stage's decisions.
  EquivalenceRecord record;
};

}  // namespace confmask
