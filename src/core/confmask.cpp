#include "src/core/confmask.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/errors.hpp"
#include "src/core/node_addition.hpp"
#include "src/core/original_index.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/core/route_anonymity.hpp"
#include "src/core/route_equivalence.hpp"
#include "src/core/strawman.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/fault_points.hpp"
#include "src/util/prefix_allocator.hpp"

namespace confmask {

namespace {

/// Algorithm 2's entry distance-vector reuse, for the stage span. An entry
/// handed over from Algorithm 1 is adopted whole: each of its OSPF vectors
/// counts as carried.
void count_entry_vectors(const Simulation& entry, bool handed_over) {
  std::uint64_t carried = 0;
  std::uint64_t computed = 0;
  if (handed_over) {
    const FlatTopology& flat = entry.flat();
    for (int h = 0; h < entry.topology().host_count(); ++h) {
      if (flat.host_route(h) == FlatTopology::HostRoute::kOspf &&
          flat.host_gateway(h) >= 0) {
        ++carried;
      }
    }
  } else {
    const IncrementalStats& stats = entry.incremental_stats();
    carried = static_cast<std::uint64_t>(stats.distance_vectors_reused);
    computed = static_cast<std::uint64_t>(stats.distance_vectors_recomputed);
  }
  PipelineTrace::count("vectors_carried", carried);
  PipelineTrace::count("vectors_computed", computed);
}

}  // namespace

std::optional<std::string> option_error(const ConfMaskOptions& options) {
  if (options.k_r < 1) return "k_r must be at least 1";
  if (options.k_h < 1) return "k_h must be at least 1";
  if (options.fake_routers < 0) return "fake_routers must be at least 0";
  if (options.links_per_fake_router < 0) {
    return "links_per_fake_router must be at least 0";
  }
  // Written so that NaN fails it.
  if (!(options.noise_p >= 0.0 && options.noise_p <= 1.0)) {
    return "noise_p must be a number in [0, 1]";
  }
  return std::nullopt;
}

const char* to_string(EquivalenceStrategy strategy) {
  switch (strategy) {
    case EquivalenceStrategy::kConfMask: return "confmask";
    case EquivalenceStrategy::kStrawman1: return "strawman1";
    case EquivalenceStrategy::kStrawman2: return "strawman2";
  }
  return "unknown";
}

PipelineResult run_pipeline(const ConfigSet& original,
                            const ConfMaskOptions& options,
                            EquivalenceStrategy strategy) {
  return run_pipeline(original, preprocess(original, nullptr), options,
                      strategy, nullptr, nullptr);
}

Preprocessed preprocess(const ConfigSet& original,
                        const PatchContext* patch_base) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t runs_before = Simulation::runs_on_this_thread();

  // Simulate the original network once and snapshot the baseline
  // (topology, FIBs, delivered paths). With a patch base whose diff is
  // filter-only, the simulation is seeded and — absent packet-ACL changes
  // — the index is spliced from the prior snapshot with only the flow
  // columns toward dirty destinations re-walked (original_index.hpp).
  Preprocessed out;
  auto span = PipelineTrace::begin("preprocess");
  run_stage(PipelineStage::kPreprocess, [&] {
    OriginalReusePlan reuse_plan;
    if (patch_base != nullptr) {
      reuse_plan = plan_original_reuse(original, *patch_base);
      out.diff = std::move(reuse_plan.diff);
    }
    out.seeded = reuse_plan.sim != nullptr;
    out.sim = out.seeded ? std::move(reuse_plan.sim)
                         : std::make_shared<const Simulation>(original);
    out.index =
        out.seeded && reuse_plan.index_reusable &&
                patch_base->index != nullptr
            ? std::make_shared<const OriginalIndex>(
                  *out.sim, *patch_base->index, reuse_plan.dirty)
            : std::make_shared<const OriginalIndex>(*out.sim);
  });
  out.simulations = Simulation::runs_on_this_thread() - runs_before;
  if (span) {
    span.add("routers", original.routers.size());
    span.add("hosts", original.hosts.size());
    span.add("flows", out.index->flow_count());
    span.add("simulations", out.simulations);
    span.add("vectors_computed",
             static_cast<std::uint64_t>(
                 out.sim->incremental_stats().distance_vectors_recomputed));
  }
  span.end();
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

PipelineResult run_pipeline(const ConfigSet& original,
                            const Preprocessed& preprocessed,
                            const ConfMaskOptions& options,
                            EquivalenceStrategy strategy,
                            const PatchContext* patch_base,
                            PatchCapture* patch_capture) {
  const auto start = std::chrono::steady_clock::now();
  if (patch_capture != nullptr) {
    patch_capture->reset();
    patch_capture->context.options = options;
  }
  // Per-THREAD counter, not the process-global one: every Simulation of
  // this run is constructed on this (orchestration) thread, and the job
  // scheduler runs several pipelines concurrently — global-counter deltas
  // would blend their simulation counts together.
  const std::uint64_t runs_before = Simulation::runs_on_this_thread();

  // Per-stage simulation-job deltas for the phase spans (§5.4 cost unit).
  std::uint64_t sims_mark = runs_before;
  const auto sims_since_mark = [&sims_mark] {
    const std::uint64_t now = Simulation::runs_on_this_thread();
    const std::uint64_t delta = now - sims_mark;
    sims_mark = now;
    return delta;
  };

  PipelineResult result;
  result.anonymized = original;
  // Tallies one stage's reuse decision against the patch base.
  const auto tally = [&](bool reused) {
    ++(reused ? result.stats.patched_stages : result.stats.patch_fallbacks);
  };

  const OriginalIndex& index = *preprocessed.index;
  if (patch_base != nullptr) tally(preprocessed.seeded);
  if (patch_capture != nullptr) {
    PatchContext& captured = patch_capture->context;
    const bool shared = patch_capture->shared_original.get() == &original;
    captured.original.configs =
        shared ? patch_capture->shared_original
               : std::make_shared<const ConfigSet>(original);
    captured.original.sim = preprocessed.sim;
    patch_capture->original_sim_reads_configs =
        shared && &preprocessed.sim->configs() == &original;
    captured.index = preprocessed.index;
  }

  // The originals' prefixes are reserved only before a stage allocates
  // from them: a grafted Step 1 restores the captured allocator whole.
  PrefixAllocator allocator(
      options.link_pool.value_or(PrefixAllocator::default_link_pool()),
      options.host_pool.value_or(PrefixAllocator::default_host_pool()));
  const auto reserve_originals = [&] {
    for (const auto& prefix : original.used_prefixes()) {
      allocator.reserve(prefix);
    }
  };
  Rng rng(options.seed);

  // Step 0 (extension, §9): network-scale obfuscation via fake routers,
  // before Step 1 so their degrees are k-anonymized too.
  if (options.fake_routers > 0) {
    reserve_originals();
    auto span = PipelineTrace::begin("node_addition");
    run_stage(PipelineStage::kNodeAddition, [&] {
      NodeAdditionOptions node_options;
      node_options.fake_routers = options.fake_routers;
      node_options.links_per_fake = options.links_per_fake_router;
      const auto nodes = add_fake_routers(
          result.anonymized, *preprocessed.sim, node_options, rng, allocator);
      result.fake_routers = nodes.fake_routers;
    });
    if (span) {
      span.add("fake_routers", result.fake_routers.size());
      span.add("simulations", sims_since_mark());
    }
  }

  // Step 1: topology anonymization (k-degree). Replayable from the patch
  // base iff every stage input is proven unchanged: the originals diff
  // filter-only (graph, AS grouping and IGP costs untouched), the options
  // are identical (RNG stream, pricing policy, pools), no fake routers ran
  // before it (the captured stage input is the bare originals), and
  // graft_topology's own roster/interface checks pass.
  auto topo_span = PipelineTrace::begin("topology_anon");
  bool grafted = false;
  const auto topo_outcome = run_stage(PipelineStage::kTopologyAnon, [&] {
    if (patch_base != nullptr && preprocessed.seeded &&
        options.fake_routers == 0 && patch_base->options == options) {
      TopologyAnonymizationOutcome outcome;
      grafted = graft_topology(result.anonymized, *patch_base, rng,
                               allocator, outcome);
      if (grafted) {
        tally(true);
        return outcome;
      }
    }
    if (patch_base != nullptr) tally(false);
    if (options.fake_routers == 0) reserve_originals();
    // Fake links are priced on the network they are added to: the
    // originals, or after node addition the enlarged configs (simulated
    // only when the policy prices anything).
    std::unique_ptr<const Simulation> enlarged;
    if (options.fake_routers > 0 &&
        options.cost_policy == FakeLinkCostPolicy::kMinCost) {
      enlarged = std::make_unique<const Simulation>(result.anonymized);
    }
    return anonymize_topology(
        result.anonymized,
        options.fake_routers > 0 ? enlarged.get() : preprocessed.sim.get(),
        options.k_r, options.cost_policy, rng, allocator);
  });
  // What node addition and Step 1 appended, for a capture to record and
  // for a patched run whose Step 1 ran to compare with the patch base's
  // records: the first half of the proof that Algorithm 1's entry configs
  // differ from the patch base's exactly where the originals differ.
  std::optional<TopologyAppends> appends;
  if (patch_capture != nullptr ||
      (patch_base != nullptr && preprocessed.seeded && !grafted)) {
    appends = topology_appends(original, result.anonymized);
  }
  const bool topology_matches =
      patch_base != nullptr && preprocessed.seeded &&
      (grafted || (appends.has_value() &&
                   topology_matches_capture(*patch_base, *appends)));
  if (patch_capture != nullptr && appends.has_value()) {
    patch_capture->context.topology = {std::move(*appends), rng, allocator,
                                       topo_outcome, true};
  }
  result.stats.fake_intra_links = topo_outcome.intra_as_links.size();
  result.stats.fake_inter_links = topo_outcome.inter_as_links.size();
  if (topo_span) {
    topo_span.add("fake_intra_links", result.stats.fake_intra_links);
    topo_span.add("fake_inter_links", result.stats.fake_inter_links);
    topo_span.add("simulations", sims_since_mark());
  }
  topo_span.end();

  // Step 2.2's fake hosts join right after Step 1, so Algorithm 2 can
  // start from Algorithm 1's final simulation instead of rebuilding every
  // real destination. Exact: Algorithm 1 reads and filters real
  // destinations only, and a fake host's LAN is a stub link on its
  // gateway that changes no real destination's FIB column (DESIGN §7).
  // The allocator still hands out Step 1's links before the LANs, and the
  // work stays attributed to the route-anonymity stage.
  run_stage(PipelineStage::kRouteAnonymity, [&] {
    result.fake_hosts =
        add_fake_hosts(result.anonymized, index, options.k_h, allocator);
    result.stats.fake_hosts = result.fake_hosts.size();
  });

  // With the fake hosts too, Algorithm 1's entry configs differ from the
  // patch base's exactly where the originals differ (patch_mode.hpp):
  // Algorithm 1 is then seeded with the preprocess diff, and Algorithm 2's
  // replay proof reads that diff.
  std::vector<FakeHostRecord> fake_hosts;
  if (patch_base != nullptr || patch_capture != nullptr) {
    fake_hosts = fake_host_records(result.anonymized, result.fake_hosts.size());
  }
  const bool entry_matches =
      topology_matches && fake_hosts == patch_base->fake_hosts;
  if (patch_capture != nullptr) {
    patch_capture->context.fake_hosts = std::move(fake_hosts);
  }

  // Step 2.1: route equivalence. The strawman strategies build their own
  // simulations internally and take no seed — with them the equivalence
  // snapshot simply stays uncaptured/unused.
  StageSeed equivalence_seed;
  const bool patch_equivalence =
      strategy == EquivalenceStrategy::kConfMask &&
      (patch_base != nullptr || patch_capture != nullptr);
  auto equivalence_span = PipelineTrace::begin("route_equivalence");
  RouteEquivalenceOutcome equivalence =
      run_stage(PipelineStage::kRouteEquivalence, [&] {
        switch (strategy) {
          case EquivalenceStrategy::kStrawman1:
            return strawman1_route_fix(result.anonymized, index);
          case EquivalenceStrategy::kStrawman2:
            return strawman2_route_fix(result.anonymized, index);
          case EquivalenceStrategy::kConfMask:
            break;
        }
        if (patch_base != nullptr) {
          if (entry_matches && patch_base->equivalence != nullptr) {
            equivalence_seed.initial =
                seed_simulation(result.anonymized, *patch_base->equivalence,
                                preprocessed.diff);
          }
          tally(equivalence_seed.initial != nullptr);
          if (equivalence_seed.initial != nullptr &&
              equivalence_replayable(*patch_base, original,
                                     preprocessed.diff,
                                     *equivalence_seed.initial)) {
            // With the filters placed, the stage's final simulation is the
            // anonymity donor seeded with the diff, as the entry was from
            // the equivalence donor: the two share one topology, so this
            // seed cannot fail where the entry's did not. The entry stays
            // the next run's equivalence donor.
            equivalence_seed.record = patch_base->equivalence_record;
            RouteEquivalenceOutcome replayed = replay_route_equivalence(
                result.anonymized, equivalence_seed.record,
                *equivalence_seed.initial);
            replayed.simulation =
                seed_simulation(result.anonymized, *patch_base->anonymity,
                                preprocessed.diff);
            equivalence_seed.entry_sim = std::move(equivalence_seed.initial);
            result.stats.equivalence_replayed = true;
            return replayed;
          }
        }
        // The entry build carries OSPF distance vectors over from the
        // preprocess simulation where they provably still hold.
        return enforce_route_equivalence(
            result.anonymized, index,
            patch_equivalence ? &equivalence_seed : nullptr,
            preprocessed.sim.get());
      });
  if (patch_capture != nullptr) {
    patch_capture->context.equivalence =
        std::move(equivalence_seed.entry_sim);
  }
  result.stats.equivalence_iterations = equivalence.iterations;
  result.stats.equivalence_filters = equivalence.filters_added;
  result.equivalence_converged = equivalence.converged;
  if (equivalence_span) {
    equivalence_span.add("iterations", equivalence.iterations);
    equivalence_span.add("filters_added", equivalence.filters_added);
    equivalence_span.add("converged", equivalence.converged ? 1 : 0);
    equivalence_span.add("simulations", sims_since_mark());
  }
  equivalence_span.end();

  // Step 2.2: route anonymity (Algorithm 2), from Algorithm 1's final
  // simulation. It hands back a simulation exact on every real
  // destination, sparing verification a from-scratch rebuild.
  // Replayed from the patch base's edit log when anonymity_replayable
  // proves the stage would decide the same edits.
  std::shared_ptr<Simulation> final_simulation;
  AnonymityPatch anonymity_replay;
  auto anonymity_span = PipelineTrace::begin("route_anonymity");
  run_stage(PipelineStage::kRouteAnonymity, [&] {
    std::shared_ptr<Simulation> entry = std::move(equivalence.simulation);
    const bool runs = !result.fake_hosts.empty() && options.noise_p > 0.0;
    // Algorithm 1 rebuilt the columns it filtered; where one equals the
    // anonymity snapshot's, share the snapshot's object, so the gate's
    // identity proof covers what the captured run already verified.
    if (patch_base != nullptr && patch_base->anonymity != nullptr &&
        entry != nullptr) {
      entry->share_equal_columns(*patch_base->anonymity);
    }
    bool replayable = false;
    if (patch_base != nullptr && runs) {
      // The entry configs match the captured run's but for filters; no
      // simulation is seeded here (the entry is Algorithm 1's).
      const bool matches = entry_matches && patch_base->anonymity != nullptr;
      tally(matches);
      replayable = matches && entry != nullptr &&
                   anonymity_replayable(*patch_base, options, rng, original,
                                        preprocessed.diff,
                                        equivalence_seed.record.filters,
                                        *entry);
    }
    // The strawmen hand over no simulation: build the entry here. A
    // capture keeps it alive as the next run's donor, also when Algorithm
    // 2 does not run; without one the rollback rounds release it.
    if (runs) {
      const bool handed_over = entry != nullptr;
      if (!handed_over) entry = std::make_shared<Simulation>(result.anonymized);
      count_entry_vectors(*entry, handed_over);
      anonymity_replay.valid = true;
    }
    if (patch_capture != nullptr) patch_capture->context.anonymity = entry;
    anonymity_replay.rng = rng;
    RouteAnonymityOutcome anonymity;
    if (replayable) {
      const AnonymityLog& captured = patch_base->anonymity_replay.log;
      anonymity = replay_route_anonymity(result.anonymized, captured,
                                         std::move(entry), &final_simulation);
      if (patch_capture != nullptr) anonymity_replay.log = captured;
      result.stats.anonymity_replayed = true;
    } else {
      anonymity = anonymize_routes(
          result.anonymized, result.fake_hosts, options.noise_p, rng,
          std::move(entry), &final_simulation,
          patch_capture != nullptr ? &anonymity_replay.log : nullptr);
    }
    result.stats.anonymity_filters = anonymity.filters_added;
    result.stats.anonymity_rollbacks = anonymity.filters_rolled_back;
  });
  if (patch_capture != nullptr) {
    patch_capture->context.anonymity_replay = std::move(anonymity_replay);
    patch_capture->context.equivalence_record =
        std::move(equivalence_seed.record);
  }
  if (anonymity_span) {
    anonymity_span.add("fake_hosts", result.stats.fake_hosts);
    anonymity_span.add("filters_kept", result.stats.anonymity_filters);
    anonymity_span.add("filters_rolled_back",
                       result.stats.anonymity_rollbacks);
    anonymity_span.add("simulations", sims_since_mark());
  }
  anonymity_span.end();

  // Final verification: over every ordered pair of real hosts, the
  // anonymized network must deliver EXACTLY the original paths.
  if (faults::fire(faults::kVerificationDiverge)) {
    // Injected divergence: the first real flow in name order counts as
    // undelivered, so the comparison below genuinely fails — this is how
    // tests prove the fail-closed gate.
    const DataPlane original_dp = index.data_plane();
    if (!original_dp.flows.empty()) {
      result.injected_undelivered_flow = original_dp.flows.begin()->first;
    }
  }
  auto verification_span = PipelineTrace::begin("verification");
  OriginalIndex::FlowComparison verdict;
  run_stage(PipelineStage::kVerification, [&] {
    if (final_simulation == nullptr) {
      final_simulation = std::make_shared<Simulation>(result.anonymized);
    }
    // Destinations the patch base's own gate matched need no new walk
    // when the edit provably left their inputs untouched.
    VerifiedBase verified_base;
    if (patch_base != nullptr && patch_base->verified) {
      verified_base = {patch_base->index.get(), patch_base->anonymity.get()};
    }
    verdict = index.compare_real_flows(
        *final_simulation,
        result.injected_undelivered_flow ? &*result.injected_undelivered_flow
                                         : nullptr,
        verified_base);
    final_simulation.reset();
  });
  result.functionally_equivalent = verdict.equal;
  if (patch_capture != nullptr) {
    patch_capture->context.verified = verdict.equal;
  }
  if (verification_span) {
    verification_span.add("real_flows_compared", verdict.real_flows_compared);
    verification_span.add("real_flows_proved", verdict.real_flows_proved);
    verification_span.add("equivalent",
                          result.functionally_equivalent ? 1 : 0);
    verification_span.add("simulations", sims_since_mark());
  }
  verification_span.end();

  result.stats.simulations = preprocessed.simulations +
                             Simulation::runs_on_this_thread() - runs_before;
  result.stats.seconds =
      preprocessed.seconds +
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace confmask
