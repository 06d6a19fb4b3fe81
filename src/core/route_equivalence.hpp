// Step 2.1: route equivalence — the paper's Algorithm 1.
//
// Iteratively simulate the intermediate network; for every FIB entry
// ⟨r̃, h̃_d, nxt⟩ whose next hop is not an original next hop AND whose link
// (r̃, nxt) is fake, add a filter on r̃ denying h̃_d from nxt. Repeat until
// a simulation surfaces no such entry — at which point the SFE conditions
// hold and (Theorem A.4) the network is functionally equivalent to the
// original.
//
// Convergence needs multiple iterations because routers have no global
// view: denying one wrong next hop can surface another one downstream in
// the next converged state. The iteration count is bounded by the number
// of fake links plus one (paper §5.4), and the loop needs no cap: every
// iteration but the last adds a deny entry, and none is ever removed.
#pragma once

#include <memory>

#include "src/config/model.hpp"
#include "src/core/original_index.hpp"
#include "src/core/stage_seed.hpp"

namespace confmask {

class Simulation;

struct RouteEquivalenceOutcome {
  int iterations = 0;     ///< simulations performed (including the clean one)
  int filters_added = 0;  ///< deny entries written
  bool converged = false;  ///< false only from Strawman 2 or a fault point
  /// The simulation of the configs as the stage left them — Algorithm 2's
  /// entry. Null when none was built: the strawmen, and a replay until
  /// its caller seeds one.
  std::shared_ptr<Simulation> simulation;
};

/// Iterations after the first re-simulate through the SimulationDelta
/// dirty-set path — the topology is frozen after Step 1, so only
/// destinations whose prefix a new filter matches are recomputed — and
/// rescan only the destinations that rebuild recomputed: a filter the
/// stage accepted records its prefix, so an aliased column holds no
/// violation a filter could fix. The scan runs per destination over the
/// pool; filters are then placed serially, so each router's prefix lists
/// get their entries in (destination, next hop) order.
///
/// The configs may already hold the fake hosts: the stage reads and
/// filters real destinations only, and a fake host's LAN is a stub link
/// that changes no real destination's column.
///
/// Runs until a scan adds no filter, polling cancellation each iteration.
/// `seed` (watch mode) optionally supplies the stage's first simulation
/// and receives a handle to it and the stage's decisions (the filters it
/// added and its iteration count) — see stage_seed.hpp. `carry`
/// (optional) is an earlier stage's simulation
/// whose OSPF distance vectors a fresh first build may adopt
/// (Simulation's carrying constructor). Filter decisions are unaffected:
/// the stage scans the same FIBs either way.
RouteEquivalenceOutcome enforce_route_equivalence(
    ConfigSet& configs, const OriginalIndex& index,
    StageSeed* seed = nullptr, const Simulation* carry = nullptr);

/// Watch mode: applies a captured run's Algorithm 1 decisions `record` to
/// `configs` in order through one FilterEditor, so lists, seqs and
/// bindings come out as that run left them, and returns that run's
/// iteration count and filter count. Scans no FIB entry and builds no
/// simulation: the outcome's simulation is left null for the
/// caller to seed once the filters are in place (patch_mode.hpp). `entry`
/// is the stage's entry simulation, on the topology `record` was recorded
/// on. The caller must have proven that the stage would decide exactly
/// `record` now (equivalence_replayable). Throws std::logic_error if a
/// filter does not take effect, which that proof rules out.
RouteEquivalenceOutcome replay_route_equivalence(
    ConfigSet& configs, const EquivalenceRecord& record,
    const Simulation& entry);

}  // namespace confmask
