// Step 2.2: route anonymity — fake hosts plus the paper's Algorithm 2.
//
// First, k_H − 1 copies of every real host are attached to the SAME
// ingress router, each on a fresh LAN outside the original address space
// (so added filters cannot interact with real routes), configured exactly
// like the real host's LAN: interface pair, IGP coverage, and a BGP
// `network` statement when the gateway speaks BGP.
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
#include "src/core/stage_seed.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {

class Simulation;

/// Adds k_h − 1 fake copies per real host; returns the fake host names.
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
/// The reachability checks batch into one reverse sweep per fake host
/// (`Simulation::routers_reaching`) instead of R × |fake_hosts| DFS walks,
/// and with `incremental` (the default) the rollback rounds re-simulate
/// through the SimulationDelta dirty-set path — the topology is frozen once
/// the fake hosts exist. When `incremental` and `final_simulation` are both
/// set, the simulation matching the RETURNED config state is handed back so
/// the caller (pipeline verification) need not rebuild it; in
/// non-incremental mode it is left null, preserving the serial baseline's
/// exact behavior.
///
/// `seed` (watch mode) optionally supplies the stage's first simulation
/// and/or receives a handle to it — see stage_seed.hpp. `carry` (optional)
/// is an earlier stage's simulation whose OSPF distance vectors a fresh
/// first build may adopt (Simulation's carrying constructor). The RNG draw
/// sequence of the noise pass is identical either way. `log`, when
/// non-null, receives the stage's decisions (watch-mode capture).
RouteAnonymityOutcome anonymize_routes(
    ConfigSet& configs, const std::vector<std::string>& fake_hosts,
    double noise_p, Rng& rng, bool incremental = true,
    std::shared_ptr<Simulation>* final_simulation = nullptr,
    StageSeed* seed = nullptr, const Simulation* carry = nullptr,
    AnonymityLog* log = nullptr);

/// Watch mode: Algorithm 2 without the noise pass or rollback rounds.
/// Applies `log`'s edits to `configs` in order through add_route_filter /
/// remove_route_filter — so list creation order, bindings and the
/// permit-all-only lists rolled-back filters leave come out as a run
/// would leave them — and hands back as `final_simulation` one
/// incremental rebuild of the entry simulation over the edited prefixes.
/// `seed.initial` must be the stage's entry simulation over `configs`, on
/// the topology `log` was recorded on; `seed.entry_sim` receives it as
/// anonymize_routes would. The caller must have proven that the stage
/// would decide exactly `log` now (patch_mode.hpp, anonymity_replayable).
/// Throws std::logic_error if an edit does not take effect, which that
/// proof rules out.
RouteAnonymityOutcome replay_route_anonymity(
    ConfigSet& configs, const AnonymityLog& log, StageSeed& seed,
    std::shared_ptr<Simulation>* final_simulation);

}  // namespace confmask
