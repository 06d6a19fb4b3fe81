#include "src/core/route_equivalence.hpp"

#include <memory>
#include <vector>

#include "src/core/filters.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/fault_points.hpp"

namespace confmask {

RouteEquivalenceOutcome enforce_route_equivalence(ConfigSet& configs,
                                                  const OriginalIndex& index,
                                                  int max_iterations,
                                                  bool incremental,
                                                  StageSeed* seed,
                                                  const Simulation* carry) {
  RouteEquivalenceOutcome outcome;
  // Step 1 froze the topology (all fake edges exist already); Algorithm 1
  // only edits route filters. So after the first full build, each
  // iteration re-simulates incrementally through the dirty set of filters
  // it just added.
  std::shared_ptr<Simulation> simulation;
  // Names resolve once per stage: the node set is frozen.
  std::vector<int> original;  // current node id -> original node id
  std::vector<RouterConfig*> routers;
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    // Fixpoint iterations dominate the pipeline's wall clock, so each one
    // is a cancellation safe point (deadline/cancel lands here, not only
    // at the stage boundary).
    poll_cancellation();
    // One child span per Algorithm 1 iteration (aggregated under
    // "route_equivalence/iteration"): FIB entries scanned, filters added,
    // and what the incremental rebuild feeding this iteration reused.
    auto iteration_span = PipelineTrace::begin("iteration");
    if (simulation == nullptr) {
      if (seed != nullptr && seed->initial != nullptr) {
        simulation = std::move(seed->initial);
      } else {
        simulation = std::make_shared<Simulation>(configs, carry);
      }
      if (seed != nullptr) seed->entry_sim = simulation;
    }
    const Simulation& sim = *simulation;
    const Topology& topo = sim.topology();
    if (iteration == 0) {
      original = index.original_ids(topo);
      routers = router_configs(configs, topo);
    }
    ++outcome.iterations;
    if (iteration_span) {
      const IncrementalStats& inc = sim.incremental_stats();
      iteration_span.add("destinations_reused",
                         static_cast<std::uint64_t>(inc.destinations_reused));
      iteration_span.add("destinations_recomputed",
                         static_cast<std::uint64_t>(inc.destinations_recomputed));
      iteration_span.add(
          "vectors_carried",
          static_cast<std::uint64_t>(inc.distance_vectors_reused));
      iteration_span.add(
          "vectors_computed",
          static_cast<std::uint64_t>(inc.distance_vectors_recomputed));
    }

    SimulationDelta delta;
    int added = 0;
    std::uint64_t fib_entries_scanned = 0;
    const int router_count = topo.router_count();
    for (int r = 0; r < router_count; ++r) {
      const int original_r = original[static_cast<std::size_t>(r)];
      // Fake routers (node-addition extension) never carry real transit —
      // every real-router FIB entry pointing at them crosses a fake link
      // and is filtered below — so their own FIBs need no fixing (and
      // emptying them would flag them to the zero-traffic attack).
      if (original_r < 0) continue;
      for (int host : topo.host_ids()) {
        const int original_h = original[static_cast<std::size_t>(host)];
        // Algorithm 1 fixes the routes of ORIGINAL destinations only;
        // fake-host routes are Step 2.2's raw material.
        if (original_h < 0) continue;
        for (const NextHop& hop : sim.fib(r, host)) {
          ++fib_entries_scanned;
          if (hop.neighbor >= router_count) continue;  // delivery
          const int original_next =
              original[static_cast<std::size_t>(hop.neighbor)];
          // Line 3 of Algorithm 1: nxt ∉ DP[r̃, h̃_d] ∧ (r̃, nxt) ∉ E.
          if (index.is_original_edge(original_r, original_next)) continue;
          if (index.is_original_next_hop(original_r, original_h,
                                         original_next)) {
            continue;
          }
          const Ipv4Prefix& prefix = sim.host_prefix(host);
          if (add_route_filter(routers[static_cast<std::size_t>(r)], r,
                               topo.link(hop.link), prefix)) {
            ++added;
            delta.record(r, prefix);
          }
        }
      }
    }
    outcome.filters_added += added;
    if (iteration_span) {
      iteration_span.add("fib_entries_scanned", fib_entries_scanned);
      iteration_span.add("filters_added", static_cast<std::uint64_t>(added));
      iteration_span.add("dirty_prefixes", delta.changes.size());
      PipelineTrace::record("equivalence_dirty_set", delta.changes.size());
    }
    iteration_span.end();
    if (added == 0) {
      outcome.converged = true;
      break;
    }
    if (iteration + 1 >= max_iterations) break;
    if (incremental) {
      simulation = std::make_shared<Simulation>(configs, sim, delta);
    } else {
      simulation.reset();
    }
  }
  // Injected non-convergence: report the fixpoint as not reached so the
  // guarded runner's iteration-escalation rung can be exercised on
  // networks that in reality converge quickly.
  if (outcome.converged &&
      faults::fire(faults::kRouteEquivalenceNonConvergent)) {
    outcome.converged = false;
  }
  return outcome;
}

}  // namespace confmask
