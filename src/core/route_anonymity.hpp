// Step 2.2: route anonymity — fake hosts plus the paper's Algorithm 2.
//
// First, k_H − 1 copies of every real host are attached to the SAME
// ingress router, each on a fresh LAN outside the original address space
// (so added filters cannot interact with real routes), configured exactly
// like the real host's LAN: interface pair, IGP coverage, and a BGP
// `network` statement when the gateway speaks BGP. The pipeline does this
// right after Step 1, before Algorithm 1 (DESIGN.md §5).
//
// Then Algorithm 2 walks the routers: for every FIB entry towards a fake
// host, with probability `noise_p` a deny filter is added; any filter that
// makes a previously reachable fake host unreachable from that router is
// rolled back. The surviving random filters divert fake-host traffic onto
// different paths (including through fake links), which is what hides the
// real routing paths among k_H−1 plausible companions.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/config/model.hpp"
#include "src/core/original_index.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {

class Simulation;

/// Adds k_h − 1 fake copies per real host; returns the fake host names.
/// Each real host's gateway is found through one index of interface
/// addresses built on entry.
std::vector<std::string> add_fake_hosts(ConfigSet& configs,
                                        const OriginalIndex& index, int k_h,
                                        PrefixAllocator& allocator);

struct RouteAnonymityOutcome {
  int filters_added = 0;    ///< deny entries surviving rollback
  int filters_rolled_back = 0;
};

/// One filter edit Algorithm 2 made and that took effect: a noise-pass add
/// or a rollback remove, in the ids of the stage's frozen topology.
struct AnonymityEdit {
  bool add = true;
  int router = -1;
  int link = -1;
  int fake_host = -1;
};

/// What one run of Algorithm 2 decided: its effective filter edits in
/// order, and the outcome it reported. Watch mode replays it
/// (replay_route_anonymity).
struct AnonymityLog {
  std::vector<AnonymityEdit> edits;
  RouteAnonymityOutcome outcome;
};

/// Algorithm 2 (randomized filters + reachability rollback).
///
/// `entry` is the simulation of `configs` as the stage finds them —
/// Algorithm 1's final one — or null, and then the stage builds it. The
/// reachability checks batch into one reverse sweep per fake host
/// (`Simulation::routers_reaching`) instead of R × |fake_hosts| DFS walks,
/// and the rollback rounds re-simulate through the SimulationDelta
/// dirty-set path — the topology is frozen once the fake hosts exist. When
/// `final_simulation` is set, the stage's last build is handed back so the
/// caller (pipeline verification) need not rebuild: its real-destination
/// columns match the RETURNED config state, since every edit of the stage
/// is an exact deny of a fake-host LAN, disjoint from every real host
/// prefix. The stage holds `entry` only until its first rollback round
/// replaces it. `log`, when non-null, receives the stage's decisions
/// (watch-mode capture).
RouteAnonymityOutcome anonymize_routes(
    ConfigSet& configs, const std::vector<std::string>& fake_hosts,
    double noise_p, Rng& rng, std::shared_ptr<Simulation> entry = nullptr,
    std::shared_ptr<Simulation>* final_simulation = nullptr,
    AnonymityLog* log = nullptr);

/// Watch mode: Algorithm 2 without the noise pass or rollback rounds.
/// Applies `log`'s edits to `configs` in order through one FilterEditor —
/// so list creation order, bindings and the permit-all-only lists
/// rolled-back filters leave come out as a run would leave them — and
/// hands back `entry` itself as `final_simulation`: the edits deny
/// fake-host LANs only, so its real-destination columns are final.
/// `entry` must be the stage's entry simulation over `configs`, on the
/// topology `log` was recorded on. The caller must
/// have proven that the stage would decide exactly `log` now
/// (patch_mode.hpp, anonymity_replayable). Throws std::logic_error if an
/// edit does not take effect, which that proof rules out.
RouteAnonymityOutcome replay_route_anonymity(
    ConfigSet& configs, const AnonymityLog& log,
    std::shared_ptr<Simulation> entry,
    std::shared_ptr<Simulation>* final_simulation);

}  // namespace confmask
