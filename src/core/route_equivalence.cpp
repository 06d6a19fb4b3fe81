#include "src/core/route_equivalence.hpp"

#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/filters.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/fault_points.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {

namespace {

/// One FIB entry Algorithm 1 filters: router `router` forwards toward
/// `host` over fake link `link` to a next hop it did not use originally.
struct Violation {
  int router = -1;
  int host = -1;
  int link = -1;
};

/// The build statistics of a stage simulation, for its span.
void add_build_counters(PipelineTrace::Span& span, const Simulation& sim) {
  const IncrementalStats& inc = sim.incremental_stats();
  span.add("destinations_reused",
           static_cast<std::uint64_t>(inc.destinations_reused));
  span.add("destinations_recomputed",
           static_cast<std::uint64_t>(inc.destinations_recomputed));
  span.add("destinations_patched",
           static_cast<std::uint64_t>(inc.destinations_patched));
  span.add("vectors_carried",
           static_cast<std::uint64_t>(inc.distance_vectors_reused));
  span.add("vectors_computed",
           static_cast<std::uint64_t>(inc.distance_vectors_recomputed));
}

/// Whether the stage reports its fixpoint reached: always, unless the
/// injected non-convergence fault fires, which exercises the guarded
/// runner's fail-closed path on networks that converge.
bool reports_converged() {
  return !faults::fire(faults::kRouteEquivalenceNonConvergent);
}

}  // namespace

RouteEquivalenceOutcome enforce_route_equivalence(ConfigSet& configs,
                                                  const OriginalIndex& index,
                                                  StageSeed* seed,
                                                  const Simulation* carry) {
  RouteEquivalenceOutcome outcome;
  // Step 1 froze the topology (all fake edges exist already); Algorithm 1
  // only edits route filters. So after the entry build, each iteration
  // re-simulates incrementally through the dirty set of filters it just
  // added.
  std::shared_ptr<Simulation>& simulation = outcome.simulation;
  // Names resolve once per stage: the node set is frozen.
  std::shared_ptr<const Topology> topology;
  std::vector<int> original;  // current node id -> original node id
  std::vector<int> real_hosts;
  std::optional<FilterEditor> editor;
  for (int iteration = 0;; ++iteration) {
    // Fixpoint iterations dominate the pipeline's wall clock, so each one
    // is a cancellation safe point (deadline/cancel lands here, not only
    // at the stage boundary).
    poll_cancellation();
    // One child span per Algorithm 1 iteration (aggregated under
    // "route_equivalence/iteration"): FIB entries scanned, filters added,
    // and what the stage-entry build reused.
    auto iteration_span = PipelineTrace::begin("iteration");
    if (iteration == 0) {
      if (seed != nullptr && seed->initial != nullptr) {
        simulation = std::move(seed->initial);
      } else {
        simulation = std::make_shared<Simulation>(configs, carry);
      }
      if (seed != nullptr) seed->entry_sim = simulation;
      if (iteration_span) add_build_counters(iteration_span, *simulation);
      topology = simulation->topology_ptr();
      original = index.original_ids(*topology);
      editor.emplace(configs, *topology);
      for (const int host : topology->host_ids()) {
        // Algorithm 1 fixes the routes of ORIGINAL destinations only;
        // fake-host routes are Step 2.2's raw material.
        if (original[static_cast<std::size_t>(host)] >= 0) {
          real_hosts.push_back(host);
        }
      }
    }
    const Simulation& sim = *simulation;
    ++outcome.iterations;

    // The first scan covers every real destination (a seeded entry aliases
    // columns its filters were never checked against); after a rebuild,
    // only the ones it recomputed.
    std::vector<int> scan;
    if (iteration == 0) {
      scan = real_hosts;
    } else {
      for (const int host : sim.recomputed_hosts()) {
        if (original[static_cast<std::size_t>(host)] >= 0) {
          scan.push_back(host);
        }
      }
    }
    const int router_count = topology->router_count();
    std::vector<std::vector<Violation>> found(scan.size());
    std::vector<std::uint64_t> scanned(scan.size(), 0);
    ThreadPool::shared().parallel_for(scan.size(), [&](std::size_t i) {
      const int host = scan[i];
      const int original_h = original[static_cast<std::size_t>(host)];
      for (int r = 0; r < router_count; ++r) {
        const int original_r = original[static_cast<std::size_t>(r)];
        // Fake routers (node-addition extension) never carry real transit —
        // every real-router FIB entry pointing at them crosses a fake link
        // and is filtered below — so their own FIBs need no fixing (and
        // emptying them would flag them to the zero-traffic attack).
        if (original_r < 0) continue;
        for (const NextHop& hop : sim.fib(r, host)) {
          ++scanned[i];
          if (hop.neighbor >= router_count) continue;  // delivery
          const int original_next =
              original[static_cast<std::size_t>(hop.neighbor)];
          // Line 3 of Algorithm 1: nxt ∉ DP[r̃, h̃_d] ∧ (r̃, nxt) ∉ E.
          if (index.is_original_edge(original_r, original_next)) continue;
          if (index.is_original_next_hop(original_r, original_h,
                                         original_next)) {
            continue;
          }
          found[i].push_back(Violation{r, host, hop.link});
        }
      }
    });
    // Placed serially, destination by destination. Filters live in their
    // router's own lists, so each router sees its filters in (destination,
    // next hop) order, as a router-major scan would place them.
    SimulationDelta delta;
    int added = 0;
    for (const auto& per_host : found) {
      for (const Violation& violation : per_host) {
        const Ipv4Prefix& prefix = sim.host_prefix(violation.host);
        if (editor->add(violation.router, violation.link, prefix)) {
          ++added;
          delta.record(violation.router, prefix);
          if (seed != nullptr) {
            seed->record.filters.push_back(EquivalenceFilter{
                violation.router, violation.link, violation.host});
          }
        }
      }
    }
    outcome.filters_added += added;
    if (iteration_span) {
      iteration_span.add("fib_entries_scanned",
                         std::accumulate(scanned.begin(), scanned.end(),
                                         std::uint64_t{0}));
      iteration_span.add("filters_added", static_cast<std::uint64_t>(added));
      iteration_span.add("dirty_prefixes", delta.changes.size());
      PipelineTrace::record("equivalence_dirty_set", delta.changes.size());
    }
    iteration_span.end();
    if (added == 0) break;
    // Rebuild over the filters just added; the next iteration scans the
    // destinations it recomputed.
    auto rebuild_span = PipelineTrace::begin("rebuild");
    simulation = std::make_shared<Simulation>(configs, sim, delta);
    if (rebuild_span) add_build_counters(rebuild_span, *simulation);
  }
  if (seed != nullptr) seed->record.iterations = outcome.iterations;
  outcome.converged = reports_converged();
  return outcome;
}

RouteEquivalenceOutcome replay_route_equivalence(
    ConfigSet& configs, const EquivalenceRecord& record,
    const Simulation& entry) {
  FilterEditor editor(configs, entry.topology());
  for (const EquivalenceFilter& filter : record.filters) {
    const Ipv4Prefix& prefix = entry.host_prefix(filter.host);
    if (!editor.add(filter.router, filter.link, prefix)) {
      throw std::logic_error("Algorithm 1 replay: a filter add for " +
                             prefix.str() + " took no effect");
    }
  }
  RouteEquivalenceOutcome outcome;
  outcome.iterations = record.iterations;
  outcome.filters_added = static_cast<int>(record.filters.size());
  outcome.converged = reports_converged();
  return outcome;
}

}  // namespace confmask
