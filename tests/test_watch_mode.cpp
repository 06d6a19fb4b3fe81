// Watch mode end to end: patched re-anonymization is byte-identical to a
// cold run for filter-only edits, falls back (still byte-identical) on
// structural edits and on graft-hazard edits, and the scheduler's resubmit
// path reconstructs, patches and converges through the cache — including
// the delete-then-readd cycle landing back on the original cache entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/core/filters.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/service/job_scheduler.hpp"
#include "src/util/ipv4.hpp"
#include "src/util/prefix_allocator.hpp"

#if defined(CONFMASK_FAULT_INJECTION)
#include "tests/fault_injection.hpp"
#endif

namespace confmask {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("confmask_" + name);
  fs::remove_all(dir);
  return dir;
}

ConfMaskOptions small_options(std::uint64_t seed) {
  ConfMaskOptions options;
  options.k_r = 2;
  options.k_h = 2;
  options.seed = seed;
  return options;
}

/// The canonical watch edit: a fresh prefix list (deny + permit-all)
/// bound as an OSPF distribute-list on the named router. The default
/// denied prefix lies outside every host LAN, real and fake.
void bind_filter(ConfigSet& configs, const std::string& router_name,
                 const Ipv4Prefix& denied = Ipv4Prefix{
                     Ipv4Address{10, 200, 200, 0}, 24}) {
  RouterConfig* router = configs.find_router(router_name);
  ASSERT_NE(router, nullptr);
  ASSERT_TRUE(router->ospf.has_value());
  PrefixList list;
  list.name = "WATCH-TEST";
  list.add_deny(denied);
  list.add_permit_all();
  router->prefix_lists.push_back(std::move(list));
  router->ospf->distribute_lists.push_back(
      DistributeList{"WATCH-TEST", router->interfaces.front().name});
}

/// Cold-runs `base` with capture and returns the finished context.
std::shared_ptr<const PatchContext> capture_context(
    const ConfigSet& base, const ConfMaskOptions& options) {
  PatchCapture capture;
  const auto run =
      run_pipeline_guarded(base, options, RetryPolicy{}, nullptr, nullptr,
                           &capture);
  EXPECT_TRUE(run.ok());
  return finish_capture(capture);
}

/// A traced patched run, checked against a cold run of the same bundle.
struct TracedPatch {
  PipelineStats stats;               ///< for reuse-depth assertions
  PipelineStats cold;                ///< the cold run's
  std::uint64_t flows_compared = 0;  ///< the gate's walked real pairs
  std::uint64_t flows_proved = 0;    ///< and those it proved
  std::uint64_t fib_entries_scanned = 0;    ///< by Algorithm 1
  std::uint64_t anonymity_simulations = 0;  ///< built by Algorithm 2
  std::shared_ptr<const PatchContext> context;  ///< captured by the run
};

/// Runs `edited` cold and patched (traced, with capture) and asserts
/// byte-identical artifacts.
TracedPatch expect_patched_matches_cold(const ConfigSet& edited,
                                        const ConfMaskOptions& options,
                                        const PatchContext* context) {
  const auto cold =
      run_pipeline_guarded(edited, options, RetryPolicy{}, nullptr, nullptr,
                           nullptr);
  TracedPatch out;
  PatchCapture capture;
  {
    PipelineTrace trace;
    const auto patched =
        run_pipeline_guarded(edited, options, RetryPolicy{}, nullptr, context,
                             &capture);
    EXPECT_TRUE(cold.ok());
    EXPECT_TRUE(patched.ok());
    if (!cold.ok() || !patched.ok()) return out;
    EXPECT_EQ(canonical_config_set_text(cold.result->anonymized),
              canonical_config_set_text(patched.result->anonymized));
    out.stats = patched.result->stats;
    out.cold = cold.result->stats;
    for (const SpanMetrics& span : trace.metrics()) {
      const auto counter = [&span](const std::string& name) {
        const auto it = span.counters.find(name);
        return it == span.counters.end() ? std::uint64_t{0} : it->second;
      };
      if (span.path == "verification") {
        out.flows_compared = counter("real_flows_compared");
        out.flows_proved = counter("real_flows_proved");
      } else if (span.path == "route_equivalence/iteration") {
        out.fib_entries_scanned = counter("fib_entries_scanned");
      } else if (span.path == "route_anonymity") {
        out.anonymity_simulations = counter("simulations");
      }
    }
  }
  out.context = finish_capture(capture);
  return out;
}

/// Options under which Algorithm 2 keeps and rolls back filters even on
/// the Fig 2 network.
ConfMaskOptions noisy_options(std::uint64_t seed) {
  ConfMaskOptions options = small_options(seed);
  options.noise_p = 0.5;
  return options;
}

TEST(WatchReplay, FilterEditReplaysAlgorithm2AndWalksNoDestination) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);
  ASSERT_TRUE(context->anonymity_replay.valid);
  ASSERT_TRUE(context->verified);
  ASSERT_FALSE(context->anonymity_replay.log.edits.empty());
  const std::uint64_t hosts = base.hosts.size();

  ConfigSet edited = base;
  bind_filter(edited, "r2");
  edited = canonicalize(std::move(edited));
  const TracedPatch first =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_TRUE(first.stats.anonymity_replayed);
  EXPECT_EQ(first.flows_compared, 0u);
  EXPECT_EQ(first.flows_proved, hosts * (hosts - 1));

  // The replayed run captures the same log, so the next cycle replays too.
  ASSERT_NE(first.context, nullptr);
  EXPECT_EQ(first.context->anonymity_replay.log.edits.size(),
            context->anonymity_replay.log.edits.size());
  ConfigSet again = edited;
  RouterConfig* router = again.find_router("r3");
  ASSERT_NE(router, nullptr);
  router->extra_lines.push_back("ip domain-name example.net");
  again = canonicalize(std::move(again));
  const TracedPatch second =
      expect_patched_matches_cold(again, options, first.context.get());
  EXPECT_TRUE(second.stats.anonymity_replayed);
  EXPECT_EQ(second.flows_compared, 0u);
  EXPECT_EQ(second.flows_proved, hosts * (hosts - 1));
}

TEST(WatchReplay, EditCoveringAFakeHostLanRunsAlgorithm2) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  // The whole fake-host pool: its dirty region covers every fake LAN, so
  // the fake-host FIB columns are rebuilt and the log proves nothing.
  ConfigSet edited = base;
  bind_filter(edited, "r2", PrefixAllocator::default_host_pool());
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_FALSE(run.stats.anonymity_replayed);
  EXPECT_GT(run.stats.patched_stages, 0);
  // Algorithm 2 touched only fake-host prefixes, so every real column is
  // still the snapshot's and the gate proves every flow.
  const std::uint64_t hosts = base.hosts.size();
  EXPECT_EQ(run.flows_compared + run.flows_proved, hosts * (hosts - 1));
}

// An edit can leave a deny for a fake-host LAN in a list that is bound
// nowhere: it moves no FIB column, yet the stage's own filter add on that
// list then takes no effect. The replay must not be taken.
TEST(WatchReplay, UnboundDenyForAFakeHostLanRunsAlgorithm2) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  // The list an IGP filter add of the captured log writes to.
  const Topology& topo = context->anonymity->topology();
  std::optional<AnonymityEdit> add;
  for (const AnonymityEdit& edit : context->anonymity_replay.log.edits) {
    const RouterConfig* router =
        base.find_router(topo.node(edit.router).name);
    if (edit.add && router != nullptr && !router->bgp) {
      add = edit;
      break;
    }
  }
  ASSERT_TRUE(add.has_value());
  ConfigSet edited = base;
  RouterConfig* router = edited.find_router(topo.node(add->router).name);
  ASSERT_NE(router, nullptr);
  PrefixList list;
  list.name =
      igp_filter_name(topo.link(add->link).end_of(add->router).interface);
  list.add_deny(context->anonymity->host_prefix(add->fake_host));
  list.add_permit_all();
  router->prefix_lists.push_back(std::move(list));
  edited = canonicalize(std::move(edited));

  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_FALSE(run.stats.anonymity_replayed);
}

#if defined(CONFMASK_FAULT_INJECTION)
// The gate takes a context's word only when that context's own gate
// passed: against a run whose gate failed, a patched run walks every real
// flow and proves none.
TEST(WatchReplay, UnverifiedContextProvesNothing) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  PatchCapture capture;
  {
    const ScopedFault diverge(faults::kVerificationDiverge, 1);
    const PipelineResult failed =
        run_pipeline(base, preprocess(base, nullptr), options,
                     EquivalenceStrategy::kConfMask, nullptr, &capture);
    ASSERT_FALSE(failed.functionally_equivalent);
  }
  const auto context = finish_capture(capture);
  ASSERT_NE(context, nullptr);
  EXPECT_FALSE(context->verified);

  ConfigSet edited = base;
  bind_filter(edited, "r2");
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  const std::uint64_t hosts = base.hosts.size();
  EXPECT_GE(run.stats.patched_stages, 1);
  EXPECT_EQ(run.flows_proved, 0u);
  EXPECT_EQ(run.flows_compared, hosts * (hosts - 1));
}
#endif

TEST(WatchReplay, DenyingARealHostPrefixWalksThatDestination) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  bind_filter(edited, "r2", base.hosts.front().prefix());
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  // Real prefixes never overlap fake LANs: the replay still holds.
  EXPECT_TRUE(run.stats.anonymity_replayed);
  const std::uint64_t hosts = base.hosts.size();
  EXPECT_EQ(run.flows_compared, hosts - 1);
  EXPECT_EQ(run.flows_proved, (hosts - 1) * (hosts - 1));
}

// USCarrier at k_H = 2 and seed 5: Algorithm 1 places 141 filters for 58
// real destinations, all on its first iteration.
ConfMaskOptions uscarrier_options() {
  ConfMaskOptions options;
  options.seed = 5;
  options.k_h = 2;
  return options;
}

/// The real destinations whose captured Algorithm 1 filters on `router`
/// went into the list named `list`.
std::set<int> destinations_in_list(const PatchContext& context,
                                   const std::string& router,
                                   const std::string& list) {
  const Topology& topo = context.anonymity->topology();
  const int node = topo.find_node(router);
  std::set<int> hosts;
  for (const EquivalenceFilter& filter : context.equivalence_record.filters) {
    if (filter.router == node &&
        igp_filter_name(topo.link(filter.link).end_of(node).interface) ==
            list) {
      hosts.insert(filter.host);
    }
  }
  return hosts;
}

/// Denies `denied` on every interface of `router` through a new list bound
/// to its IGP.
void deny_on_every_interface(ConfigSet& configs, const std::string& router,
                             const Ipv4Prefix& denied) {
  RouterConfig* config = configs.find_router(router);
  ASSERT_NE(config, nullptr);
  PrefixList list;
  list.name = "EDIT";
  list.add_deny(denied);
  list.add_permit_all();
  config->prefix_lists.push_back(std::move(list));
  auto& bound = config->ospf ? config->ospf->distribute_lists
                             : config->rip->distribute_lists;
  for (const InterfaceConfig& iface : config->interfaces) {
    bound.push_back(DistributeList{"EDIT", iface.name});
  }
}

// An edit whose dirty prefixes miss every real host replays Algorithm 1:
// it scans no FIB entry, places the recorded filters and reports the cold
// run's counts, and the replayed Algorithm 2 builds no simulation. A run
// then builds three: preprocess, Algorithm 1's entry and its final one.
// The run's capture records the same decisions, so the next edit of the
// chain replays them again.
TEST(WatchEquivalenceReplay, EditDirtyingNoRealDestinationScansNothing) {
  const ConfigSet base = canonicalize(make_uscarrier());
  const ConfMaskOptions options = uscarrier_options();
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  bind_filter(edited, "usc17");
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_EQ(run.stats.patched_stages, 4);
  EXPECT_EQ(run.stats.patch_fallbacks, 0);
  EXPECT_TRUE(run.stats.equivalence_replayed);
  EXPECT_FALSE(run.cold.equivalence_replayed);
  EXPECT_TRUE(run.stats.anonymity_replayed);
  EXPECT_EQ(run.fib_entries_scanned, 0u);
  EXPECT_EQ(run.anonymity_simulations, 0u);
  EXPECT_EQ(run.stats.simulations, 3u);
  EXPECT_EQ(run.stats.equivalence_iterations, run.cold.equivalence_iterations);
  EXPECT_EQ(run.stats.equivalence_filters, run.cold.equivalence_filters);
  EXPECT_EQ(run.stats.equivalence_filters, 141);
  ASSERT_NE(run.context, nullptr);
  EXPECT_EQ(run.context->equivalence_record.filters,
            context->equivalence_record.filters);
  EXPECT_EQ(run.context->equivalence_record.iterations,
            context->equivalence_record.iterations);

  ConfigSet next = edited;
  RouterConfig* router = next.find_router("usc20");
  ASSERT_NE(router, nullptr);
  PrefixList list;
  list.name = "WATCH-NEXT";
  list.add_deny(Ipv4Prefix{Ipv4Address{10, 200, 201, 0}, 24});
  list.add_permit_all();
  router->prefix_lists.push_back(std::move(list));
  router->ospf->distribute_lists.push_back(
      DistributeList{"WATCH-NEXT", router->interfaces.front().name});
  next = canonicalize(std::move(next));
  const TracedPatch chained =
      expect_patched_matches_cold(next, options, run.context.get());
  EXPECT_TRUE(chained.stats.equivalence_replayed);
  EXPECT_TRUE(chained.stats.anonymity_replayed);
  EXPECT_EQ(chained.fib_entries_scanned, 0u);
  EXPECT_EQ(chained.stats.equivalence_filters, 141);
}

// Denying a real host's prefix runs Algorithm 1 in full. On a 60-router
// RIP network a deny of h0 on every interface of r0 moves h0's routes, and
// the run places two more filters than the captured one did.
TEST(WatchEquivalenceReplay, DenyingARealHostPrefixRunsAlgorithm1) {
  const ConfigSet base =
      canonicalize(make_scale_network(ScaleFamily::kWaxmanRip, 60, 2));
  ConfMaskOptions options;
  options.seed = 2;
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  deny_on_every_interface(edited, "r0", base.find_host("h0")->prefix());
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_FALSE(run.stats.equivalence_replayed);
  EXPECT_GT(run.fib_entries_scanned, 0u);
  EXPECT_EQ(run.stats.equivalence_iterations, run.cold.equivalence_iterations);
  EXPECT_EQ(run.stats.equivalence_filters, run.cold.equivalence_filters);
  EXPECT_EQ(run.stats.equivalence_filters,
            static_cast<int>(context->equivalence_record.filters.size()) + 2);
}

// A changed router gains, under the name of a list Algorithm 1 wrote on
// it, a permit of usch32's prefix ahead of the permit-all. The edit
// dirties nothing, yet the permit shadows Algorithm 1's deny there, so
// Algorithm 1 runs in full. The shadowed fake route fails the gate in
// both runs alike.
TEST(WatchEquivalenceReplay, ShadowingPermitOnAChangedRouterRunsAlgorithm1) {
  const ConfigSet base = canonicalize(make_uscarrier());
  const ConfMaskOptions options = uscarrier_options();
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);
  const HostConfig* host = base.find_host("usch32");
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(destinations_in_list(*context, "usc10", "CMF_Ethernet100")
                  .count(context->anonymity->topology().find_node("usch32")));

  ConfigSet edited = base;
  RouterConfig* router = edited.find_router("usc10");
  ASSERT_NE(router, nullptr);
  PrefixList list;
  list.name = "CMF_Ethernet100";
  list.entries.push_back(PrefixListEntry{5, /*permit=*/true, host->prefix(),
                                         std::nullopt, std::nullopt});
  list.add_permit_all();
  router->prefix_lists.push_back(std::move(list));
  edited = canonicalize(std::move(edited));
  const auto run = [&](const PatchContext* patch_base) {
    return run_pipeline(edited, preprocess(edited, patch_base), options,
                        EquivalenceStrategy::kConfMask, patch_base, nullptr);
  };
  const PipelineResult cold = run(nullptr);
  const PipelineResult patched = run(context.get());
  EXPECT_EQ(canonical_config_set_text(cold.anonymized),
            canonical_config_set_text(patched.anonymized));
  EXPECT_EQ(patched.functionally_equivalent, cold.functionally_equivalent);
  EXPECT_FALSE(cold.functionally_equivalent);
  EXPECT_FALSE(patched.stats.equivalence_replayed);
  EXPECT_EQ(patched.stats.equivalence_iterations,
            cold.stats.equivalence_iterations);
}

// Without fake hosts Algorithm 2 does not run, yet the capture keeps
// Algorithm 1's final simulation as the anonymity donor: the next run
// replays Algorithm 1 and its gate proves every flow.
TEST(WatchEquivalenceReplay, ContextWithoutAlgorithm2KeepsItsDonor) {
  const ConfigSet base = canonicalize(make_uscarrier());
  ConfMaskOptions options = uscarrier_options();
  options.k_h = 1;
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);
  ASSERT_NE(context->anonymity, nullptr);
  EXPECT_FALSE(context->anonymity_replay.valid);

  ConfigSet edited = base;
  bind_filter(edited, "usc17");
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  const std::uint64_t hosts = base.hosts.size();
  EXPECT_EQ(run.stats.patched_stages, 3);
  EXPECT_EQ(run.stats.patch_fallbacks, 0);
  EXPECT_TRUE(run.stats.equivalence_replayed);
  EXPECT_EQ(run.fib_entries_scanned, 0u);
  EXPECT_EQ(run.flows_compared, 0u);
  EXPECT_EQ(run.flows_proved, hosts * (hosts - 1));
}

TEST(WatchMode, NonCanonicalBaseRunsColdAndMatchesTheColdRun) {
  // Bics in generator order, which is not canonical order: the captured
  // snapshots' config_index positions name other devices in a canonical
  // edit, which diff_config_sets (by name) still calls filter-only.
  const ConfigSet base = make_bics();
  ASSERT_FALSE(std::is_sorted(
      base.routers.begin(), base.routers.end(),
      [](const RouterConfig& a, const RouterConfig& b) {
        return a.hostname < b.hostname;
      }));
  ConfMaskOptions options;
  options.seed = 7;
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  // Deny a real host's prefix on one router.
  ConfigSet edited = base;
  const std::string router = base.routers[base.routers.size() / 2].hostname;
  bind_filter(edited, router, base.hosts.front().prefix());
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_EQ(run.stats.patched_stages, 0);
}

TEST(WatchMode, FilterEditPatchesAndStaysByteIdentical) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = small_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  bind_filter(edited, "r2");
  edited = canonicalize(std::move(edited));

  const PipelineStats stats =
      expect_patched_matches_cold(edited, options, context.get()).stats;
  // The filter-only edit must reuse every stage: preprocess, Step 1,
  // Algorithm 1 and Algorithm 2 — otherwise the patched path silently
  // degraded toward a cold run.
  EXPECT_EQ(stats.patched_stages, 4);
  EXPECT_EQ(stats.patch_fallbacks, 0);
  EXPECT_TRUE(stats.anonymity_replayed);
}

// Algorithm 1 writes its filters into the list named after the fake
// interface it filters on. A user list of that name, bound on that
// interface, is one Algorithm 1 then writes into: its entries and seqs
// come out of both runs alike, and the replay is refused.
TEST(WatchReplay, UserListAlgorithm1WritesIntoStaysByteIdentical) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  PatchCapture capture;
  const auto captured =
      run_pipeline_guarded(base, options, RetryPolicy{}, nullptr, nullptr,
                           &capture);
  ASSERT_TRUE(captured.ok());
  const auto context = finish_capture(capture);
  ASSERT_NE(context, nullptr);

  // A list the captured run's Algorithm 1 wrote: a deny for a real host's
  // prefix in a distribute-list's list.
  std::string router_name;
  std::string interface;
  for (const RouterConfig& router : captured.result->anonymized.routers) {
    if (!router.ospf) continue;
    for (const DistributeList& bound : router.ospf->distribute_lists) {
      if (bound.prefix_list != igp_filter_name(bound.interface)) continue;
      const auto list = std::find_if(
          router.prefix_lists.begin(), router.prefix_lists.end(),
          [&](const PrefixList& candidate) {
            return candidate.name == bound.prefix_list;
          });
      if (list == router.prefix_lists.end()) continue;
      const bool denies_real = std::any_of(
          list->entries.begin(), list->entries.end(),
          [&](const PrefixListEntry& entry) {
            return !entry.permit &&
                   std::any_of(base.hosts.begin(), base.hosts.end(),
                               [&](const HostConfig& host) {
                                 return host.prefix() == entry.prefix;
                               });
          });
      if (denies_real && router_name.empty()) {
        router_name = router.hostname;
        interface = bound.interface;
      }
    }
  }
  ASSERT_FALSE(router_name.empty());
  // The interface is a fake one: the originals bind the list to a name
  // Step 1 creates.
  ASSERT_EQ(base.find_router(router_name)->find_interface(interface),
            nullptr);

  ConfigSet edited = base;
  RouterConfig* router = edited.find_router(router_name);
  ASSERT_NE(router, nullptr);
  PrefixList list;
  list.name = igp_filter_name(interface);
  list.add_deny(Ipv4Prefix{Ipv4Address{10, 200, 200, 0}, 24});
  list.add_permit_all();
  router->prefix_lists.push_back(std::move(list));
  router->ospf->distribute_lists.push_back(
      DistributeList{igp_filter_name(interface), interface});
  edited = canonicalize(std::move(edited));

  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_EQ(run.stats.patched_stages, 4);
  EXPECT_EQ(run.stats.patch_fallbacks, 0);
  EXPECT_FALSE(run.stats.anonymity_replayed);
}

// RIP filters propagate, so an edit on one router can move Algorithm 1's
// filters on another that the edit left alone. There, Algorithm 1 writes
// into a user list of the name it writes (its adds drop the list's
// permit-alls), so the replay is refused and the bytes still match.
TEST(WatchReplay, Algorithm1FiltersMovedOnAnUneditedRouterRefuseTheReplay) {
  ConfigSet base = make_scale_network(ScaleFamily::kWaxmanRip, 28, 4);
  {
    RouterConfig* router = base.find_router("r23");
    ASSERT_NE(router, nullptr);
    PrefixList list;
    list.name = igp_filter_name("Ethernet100");
    list.add_permit_all();
    list.add_deny(Ipv4Prefix{Ipv4Address{10, 250, 0, 0}, 16});
    router->prefix_lists.push_back(std::move(list));
  }
  base = canonicalize(std::move(base));
  const ConfMaskOptions options = noisy_options(7);
  PatchCapture capture;
  const auto captured =
      run_pipeline_guarded(base, options, RetryPolicy{}, nullptr, nullptr,
                           &capture);
  ASSERT_TRUE(captured.ok());
  const auto context = finish_capture(capture);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  const HostConfig* h1 = base.find_host("h1");
  ASSERT_NE(h1, nullptr);
  RouterConfig* r6 = edited.find_router("r6");
  ASSERT_NE(r6, nullptr);
  ASSERT_TRUE(r6->rip.has_value());
  PrefixList deny;
  deny.name = "EDIT";
  deny.add_deny(h1->prefix());
  deny.add_permit_all();
  r6->prefix_lists.push_back(std::move(deny));
  r6->rip->distribute_lists.push_back(
      DistributeList{"EDIT", r6->interfaces.front().name});
  edited = canonicalize(std::move(edited));

  // The captured run filtered h1 on r23's fake interface; the edited one
  // does not, and r23 itself is unedited.
  const auto denies_h1 = [&](const ConfigSet& configs) {
    const RouterConfig* router = configs.find_router("r23");
    for (const PrefixList& list : router->prefix_lists) {
      if (list.name != igp_filter_name("Ethernet100")) continue;
      for (const PrefixListEntry& entry : list.entries) {
        if (!entry.permit && entry.prefix == h1->prefix()) return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(denies_h1(captured.result->anonymized));
  const auto cold = run_pipeline_guarded(edited, options);
  ASSERT_TRUE(cold.ok());
  ASSERT_FALSE(denies_h1(cold.result->anonymized));

  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_EQ(run.stats.patched_stages, 4);
  EXPECT_EQ(run.stats.patch_fallbacks, 0);
  EXPECT_FALSE(run.stats.anonymity_replayed);
}

// With node addition the topology stage is not grafted, but it appends
// what the captured run appended, so Algorithm 1 is still seeded and
// Algorithm 2 replayed.
TEST(WatchReplay, FakeRouterRunSeedsAlgorithm1AndReplays) {
  const ConfigSet base = canonicalize(make_figure2());
  ConfMaskOptions options = noisy_options(7);
  options.fake_routers = 2;
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  bind_filter(edited, "r2");
  edited = canonicalize(std::move(edited));
  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_EQ(run.stats.patched_stages, 3);
  EXPECT_EQ(run.stats.patch_fallbacks, 1);
  EXPECT_TRUE(run.stats.anonymity_replayed);
}

// Fake hosts copy their real host's passthrough lines, so an edit there
// changes the fake hosts too, and nothing else.
TEST(WatchReplay, RealHostPassthroughEditStaysByteIdentical) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  HostConfig* host = edited.find_host("h1");
  ASSERT_NE(host, nullptr);
  host->extra_lines.push_back("ip domain-name example.net");
  edited = canonicalize(std::move(edited));

  const TracedPatch run =
      expect_patched_matches_cold(edited, options, context.get());
  EXPECT_EQ(run.stats.patched_stages, 4);
  EXPECT_EQ(run.stats.patch_fallbacks, 0);
  EXPECT_TRUE(run.stats.anonymity_replayed);
}

// A chain of filter-only edits at k_H = 2, each patched against the
// previous step's context: add a list, modify it, deny a real host, drop
// the first list, edit an ACL, unbind the second list. Every step equals
// its cold run and keeps its reuse tally.
TEST(WatchReplay, FilterEditChainStaysByteIdenticalWithItsTallies) {
  ConfigSet current = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  std::shared_ptr<const PatchContext> context =
      capture_context(current, options);
  ASSERT_NE(context, nullptr);

  const auto add_list = [](ConfigSet& configs, const std::string& router_name,
                           const std::string& name, const Ipv4Prefix& denied) {
    RouterConfig* router = configs.find_router(router_name);
    ASSERT_NE(router, nullptr);
    PrefixList list;
    list.name = name;
    list.add_deny(denied);
    list.add_permit_all();
    router->prefix_lists.push_back(std::move(list));
    router->ospf->distribute_lists.push_back(
        DistributeList{name, router->interfaces.front().name});
  };
  const auto unbind = [](ConfigSet& configs, const std::string& router_name,
                         const std::string& name) {
    RouterConfig* router = configs.find_router(router_name);
    ASSERT_NE(router, nullptr);
    std::erase_if(router->ospf->distribute_lists,
                  [&](const DistributeList& bound) {
                    return bound.prefix_list == name;
                  });
  };
  const Ipv4Prefix real_host = current.hosts.front().prefix();
  struct Step {
    const char* what;
    std::function<void(ConfigSet&)> edit;
    int patched_stages;
    int patch_fallbacks;
    bool replayed;
  };
  const std::vector<Step> steps = {
      {"add a list",
       [&](ConfigSet& configs) {
         add_list(configs, "r2", "CHAIN-A",
                  Ipv4Prefix{Ipv4Address{10, 200, 200, 0}, 24});
       },
       4, 0, true},
      {"modify it",
       [&](ConfigSet& configs) {
         RouterConfig* router = configs.find_router("r2");
         ASSERT_NE(router, nullptr);
         PrefixList* list = router->find_prefix_list("CHAIN-A");
         ASSERT_NE(list, nullptr);
         list->entries.front().prefix =
             Ipv4Prefix{Ipv4Address{10, 201, 0, 0}, 16};
       },
       4, 0, true},
      {"deny a real host",
       [&](ConfigSet& configs) {
         add_list(configs, "r3", "CHAIN-B", real_host);
       },
       4, 0, true},
      {"remove the first list",
       [&](ConfigSet& configs) {
         unbind(configs, "r2", "CHAIN-A");
         RouterConfig* router = configs.find_router("r2");
         ASSERT_NE(router, nullptr);
         std::erase_if(router->prefix_lists, [](const PrefixList& list) {
           return list.name == "CHAIN-A";
         });
       },
       4, 0, true},
      {"edit an ACL",
       [&](ConfigSet& configs) {
         RouterConfig* router = configs.find_router("r1");
         ASSERT_NE(router, nullptr);
         AccessList acl;
         acl.number = 150;
         acl.entries.push_back(
             AclEntry{false, Ipv4Prefix{Ipv4Address{10, 250, 0, 0}, 16},
                      Ipv4Prefix{Ipv4Address{0u}, 0}});
         acl.entries.push_back(AclEntry{true, Ipv4Prefix{Ipv4Address{0u}, 0},
                                        Ipv4Prefix{Ipv4Address{0u}, 0}});
         router->access_lists.push_back(std::move(acl));
         router->interfaces.front().access_group_in = 150;
       },
       4, 0, true},
      {"unbind the second list",
       [&](ConfigSet& configs) { unbind(configs, "r3", "CHAIN-B"); }, 4, 0,
       true},
  };
  for (const Step& step : steps) {
    ConfigSet edited = current;
    step.edit(edited);
    edited = canonicalize(std::move(edited));
    const TracedPatch run =
        expect_patched_matches_cold(edited, options, context.get());
    EXPECT_EQ(run.stats.patched_stages, step.patched_stages) << step.what;
    EXPECT_EQ(run.stats.patch_fallbacks, step.patch_fallbacks) << step.what;
    EXPECT_EQ(run.stats.anonymity_replayed, step.replayed) << step.what;
    ASSERT_NE(run.context, nullptr) << step.what;
    context = run.context;
    current = std::move(edited);
  }
}

// A finished context holds one bundle, its original: the caller's own
// copy when offered, read by the live preprocess simulation, and the
// stage simulations are column donors with no configs to read.
TEST(WatchMode, FinishedContextHoldsOnlyItsOriginal) {
  const auto base =
      std::make_shared<const ConfigSet>(canonicalize(make_figure2()));
  const ConfMaskOptions options = noisy_options(7);
  PatchCapture capture;
  capture.shared_original = base;
  ASSERT_TRUE(run_pipeline_guarded(*base, options, RetryPolicy{}, nullptr,
                                   nullptr, &capture)
                  .ok());
  const auto context = finish_capture(capture);
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->original.configs, base);
  EXPECT_EQ(&context->original.sim->configs(), base.get());
  ASSERT_NE(context->equivalence, nullptr);
  ASSERT_NE(context->anonymity, nullptr);
  EXPECT_THROW((void)context->equivalence->configs(), std::logic_error);
  EXPECT_THROW((void)context->anonymity->configs(), std::logic_error);
  EXPECT_EQ(&context->equivalence->topology(),
            &context->anonymity->topology());

  // Without the caller's copy the context clones the bundle once, and the
  // preprocess simulation, which read the caller's, is a donor too.
  const auto cloned = capture_context(*base, options);
  ASSERT_NE(cloned, nullptr);
  EXPECT_NE(cloned->original.configs, base);
  EXPECT_EQ(canonical_config_set_text(*cloned->original.configs),
            canonical_config_set_text(*base));
  EXPECT_THROW((void)cloned->original.sim->configs(), std::logic_error);
}

TEST(WatchMode, StructuralEditFallsBackColdButByteIdentical) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = small_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  HostConfig host;
  host.hostname = "h9";
  host.address = Ipv4Address{10, 88, 0, 2};
  host.gateway = Ipv4Address{10, 88, 0, 1};
  edited.hosts.push_back(host);
  edited = canonicalize(std::move(edited));

  const PipelineStats stats =
      expect_patched_matches_cold(edited, options, context.get()).stats;
  // A new device shifts node ids: every snapshot must be rejected.
  EXPECT_EQ(stats.patched_stages, 0);
  EXPECT_GT(stats.patch_fallbacks, 0);
}

// A patch base captured under other options: Step 1 is not grafted but
// runs again. Where it appends what the base recorded and the fake hosts
// match (only the noise changed), Algorithm 1 is still seeded; where
// either differs (fake links priced otherwise, another k_H), it runs
// unseeded.
TEST(WatchMode, OptionChangesRunStep1AgainAndKeepTheirProofs) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions captured = noisy_options(7);
  const auto context = capture_context(base, captured);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  bind_filter(edited, "r2");
  edited = canonicalize(std::move(edited));
  struct Case {
    const char* what;
    ConfMaskOptions options;
    int patched_stages;
    int patch_fallbacks;
  };
  ConfMaskOptions noise = captured;
  noise.noise_p = 0.3;
  ConfMaskOptions pricing = captured;
  pricing.cost_policy = FakeLinkCostPolicy::kLarge;
  ConfMaskOptions k_h = captured;
  k_h.k_h = 3;
  for (const Case& c : {Case{"noise", noise, 3, 1},
                        Case{"pricing", pricing, 1, 3},
                        Case{"k_h", k_h, 1, 3}}) {
    const TracedPatch run =
        expect_patched_matches_cold(edited, c.options, context.get());
    EXPECT_EQ(run.stats.patched_stages, c.patched_stages) << c.what;
    EXPECT_EQ(run.stats.patch_fallbacks, c.patch_fallbacks) << c.what;
    EXPECT_FALSE(run.stats.anonymity_replayed) << c.what;
  }
}

TEST(WatchMode, FrontInterfaceExtraLineEditStaysByteIdentical) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = small_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  // Filter-only by classification, but fake interfaces CLONE the first
  // real interface's passthrough lines — replaying the captured topology
  // stage would graft stale clones, so the graft must bail while the
  // simulation snapshots stay reusable. Byte identity is the proof.
  ConfigSet edited = base;
  RouterConfig* router = edited.find_router("r1");
  ASSERT_NE(router, nullptr);
  ASSERT_FALSE(router->interfaces.empty());
  router->interfaces.front().extra_lines.push_back("service-policy out QOS");
  edited = canonicalize(std::move(edited));

  const PipelineStats stats =
      expect_patched_matches_cold(edited, options, context.get()).stats;
  EXPECT_GT(stats.patched_stages, 0);
}

#if defined(CONFMASK_FAULT_INJECTION)
// A patched run that needs a retry: the reseeded attempt reuses the shared,
// seeded preprocess, so it still reports a patched stage (what the
// scheduler counts as a patched job) and still matches a cold run that took
// the same retry.
TEST(WatchMode, RetriedPatchedRunStaysPatchedAndByteIdentical) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = small_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  bind_filter(edited, "r2");
  edited = canonicalize(std::move(edited));

  const auto run = [&](const PatchContext* patch_base) {
    const ScopedFault diverge(faults::kVerificationDiverge, 1);
    return run_pipeline_guarded(edited, options, RetryPolicy{}, nullptr,
                                patch_base, nullptr);
  };
  const auto cold = run(nullptr);
  const auto patched = run(context.get());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(cold.diagnostics.attempts, 2);
  EXPECT_EQ(patched.diagnostics.attempts, 2);
  EXPECT_GE(patched.result->stats.patched_stages, 1);
  // The retried attempt tallies all four reuse decisions, the shared
  // preprocess's included: preprocess, Step 1, Algorithm 1, Algorithm 2.
  EXPECT_EQ(patched.result->stats.patched_stages +
                patched.result->stats.patch_fallbacks,
            4);
  EXPECT_EQ(canonical_config_set_text(cold.result->anonymized),
            canonical_config_set_text(patched.result->anonymized));
}

// The gate's proof never covers the injected divergence: a patched run
// that would prove every other destination still fails closed.
TEST(WatchReplay, InjectedDivergenceStillFailsClosedWhenPatched) {
  const ConfigSet base = canonicalize(make_figure2());
  const ConfMaskOptions options = noisy_options(7);
  const auto context = capture_context(base, options);
  ASSERT_NE(context, nullptr);

  ConfigSet edited = base;
  bind_filter(edited, "r2");
  edited = canonicalize(std::move(edited));
  const ScopedFault diverge(faults::kVerificationDiverge, 99);
  const auto patched =
      run_pipeline_guarded(edited, options, RetryPolicy{}, nullptr,
                           context.get(), nullptr);
  EXPECT_FALSE(patched.ok());
  EXPECT_EQ(patched.diagnostics.stage, PipelineStage::kVerification);
  EXPECT_FALSE(patched.diagnostics.divergence.empty());
}
#endif

TEST(WatchMode, SchedulerResubmitPatchesAndConvergesWithPlainSubmit) {
  ArtifactCache cache(fresh_dir("watch_resubmit"));
  JobScheduler scheduler(&cache, {});

  JobRequest request;
  request.configs = make_figure2();
  request.options = small_options(7);
  const SubmitOutcome first = scheduler.submit_ex(std::move(request));
  ASSERT_TRUE(first.accepted());
  ASSERT_TRUE(scheduler.wait(*first.id));
  const auto first_status = scheduler.status(*first.id);
  ASSERT_TRUE(first_status.has_value());
  ASSERT_EQ(first_status->state, JobState::kDone);
  EXPECT_GE(scheduler.stats().watch_contexts, 1u);

  ConfigSet edited = make_figure2();
  bind_filter(edited, "r2");
  ResubmitRequest resubmit;
  resubmit.base_key_hex = first_status->cache_key;
  resubmit.diff_text = render_bundle_diff(make_figure2(), edited);
  resubmit.options = small_options(7);
  const SubmitOutcome second = scheduler.resubmit(std::move(resubmit));
  ASSERT_TRUE(second.accepted()) << second.error;
  ASSERT_TRUE(scheduler.wait(*second.id));
  const auto second_status = scheduler.status(*second.id);
  ASSERT_TRUE(second_status.has_value());
  ASSERT_EQ(second_status->state, JobState::kDone);
  EXPECT_FALSE(second_status->cache_hit);
  EXPECT_TRUE(second_status->patched);
  EXPECT_EQ(scheduler.stats().resubmitted, 1u);
  EXPECT_EQ(scheduler.stats().patched_jobs, 1u);

  // A plain submit of the edited bundle keys identically to the
  // resubmit's reconstruction — hitting the cache proves the resubmit
  // executed the exact bytes a full submit would have.
  JobRequest plain;
  plain.configs = edited;
  plain.options = small_options(7);
  const SubmitOutcome third = scheduler.submit_ex(std::move(plain));
  ASSERT_TRUE(third.accepted());
  ASSERT_TRUE(scheduler.wait(*third.id));
  const auto third_status = scheduler.status(*third.id);
  ASSERT_TRUE(third_status.has_value());
  EXPECT_EQ(third_status->state, JobState::kDone);
  EXPECT_TRUE(third_status->cache_hit);
  EXPECT_EQ(third_status->cache_key, second_status->cache_key);
  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
}

TEST(WatchMode, DeleteThenReaddResubmitRehitsTheOriginalEntry) {
  ArtifactCache cache(fresh_dir("watch_readd"));
  JobScheduler scheduler(&cache, {});

  JobRequest request;
  request.configs = make_figure2();
  request.options = small_options(7);
  const SubmitOutcome base = scheduler.submit_ex(std::move(request));
  ASSERT_TRUE(base.accepted());
  ASSERT_TRUE(scheduler.wait(*base.id));
  const auto base_status = scheduler.status(*base.id);
  ASSERT_TRUE(base_status.has_value());
  ASSERT_EQ(base_status->state, JobState::kDone);

  // Cycle 1: delete h4. Runs cold (structural), publishes its own entry.
  ConfigSet without_h4 = make_figure2();
  std::erase_if(without_h4.hosts, [](const HostConfig& host) {
    return host.hostname == "h4";
  });
  ResubmitRequest remove;
  remove.base_key_hex = base_status->cache_key;
  remove.diff_text = render_bundle_diff(make_figure2(), without_h4);
  remove.options = small_options(7);
  const SubmitOutcome removed = scheduler.resubmit(std::move(remove));
  ASSERT_TRUE(removed.accepted()) << removed.error;
  ASSERT_TRUE(scheduler.wait(*removed.id));
  const auto removed_status = scheduler.status(*removed.id);
  ASSERT_TRUE(removed_status.has_value());
  ASSERT_EQ(removed_status->state, JobState::kDone);
  EXPECT_NE(removed_status->cache_key, base_status->cache_key);
  const std::uint64_t sims_after_remove = scheduler.stats().simulations;

  // Cycle 2: re-add h4 byte-identically, diffed against cycle 1's entry.
  // The reconstructed bundle IS the original network, so the job keys back
  // to the original entry and completes from cache — zero simulations.
  ResubmitRequest readd;
  readd.base_key_hex = removed_status->cache_key;
  readd.diff_text = render_bundle_diff(without_h4, make_figure2());
  readd.options = small_options(7);
  const SubmitOutcome readded = scheduler.resubmit(std::move(readd));
  ASSERT_TRUE(readded.accepted()) << readded.error;
  ASSERT_TRUE(scheduler.wait(*readded.id));
  const auto readd_status = scheduler.status(*readded.id);
  ASSERT_TRUE(readd_status.has_value());
  ASSERT_EQ(readd_status->state, JobState::kDone);
  EXPECT_TRUE(readd_status->cache_hit);
  EXPECT_EQ(readd_status->cache_key, base_status->cache_key);
  EXPECT_EQ(scheduler.stats().simulations, sims_after_remove);
  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
}

TEST(WatchMode, ResubmitAgainstAnEvictedContextCountsAMiss) {
  ArtifactCache cache(fresh_dir("watch_evicted"));
  const JobScheduler::Options scheduler_options;
  JobScheduler scheduler(&cache, scheduler_options);
  const std::size_t capacity = scheduler_options.watch_context_capacity;
  ASSERT_GT(capacity, 0u);

  // capacity + 1 published entries, one at a time so the LRU order is the
  // publication order: the first base's context is the one evicted.
  std::vector<std::string> keys;
  for (std::size_t i = 0; i <= capacity; ++i) {
    JobRequest request;
    request.configs = make_figure2();
    request.options = small_options(100 + i);
    const SubmitOutcome outcome = scheduler.submit_ex(std::move(request));
    ASSERT_TRUE(outcome.accepted());
    ASSERT_TRUE(scheduler.wait(*outcome.id));
    const auto status = scheduler.status(*outcome.id);
    ASSERT_TRUE(status.has_value());
    ASSERT_EQ(status->state, JobState::kDone);
    keys.push_back(status->cache_key);
  }
  EXPECT_EQ(scheduler.stats().watch_contexts, capacity);

  // Resubmits the canonical edit against `base_key`; returns its terminal
  // state.
  const auto resubmit_against = [&](const std::string& base_key) {
    ConfigSet edited = make_figure2();
    bind_filter(edited, "r2");
    ResubmitRequest resubmit;
    resubmit.base_key_hex = base_key;
    resubmit.diff_text = render_bundle_diff(make_figure2(), edited);
    resubmit.options = small_options(100);
    const SubmitOutcome outcome = scheduler.resubmit(std::move(resubmit));
    EXPECT_TRUE(outcome.accepted()) << outcome.error;
    if (!outcome.accepted()) return JobStatus{};
    EXPECT_TRUE(scheduler.wait(*outcome.id));
    return scheduler.status(*outcome.id).value_or(JobStatus{});
  };

#if defined(CONFMASK_FAULT_INJECTION)
  // A resubmit that fails closed counts nowhere, whether or not its base
  // still had a context.
  {
    const ScopedFault diverge(faults::kVerificationDiverge, 99);
    EXPECT_EQ(resubmit_against(keys.front()).state, JobState::kFailed);
    EXPECT_EQ(resubmit_against(keys.back()).state, JobState::kFailed);
  }
  const SchedulerStats failed = scheduler.stats();
  EXPECT_EQ(failed.watch_context_misses, 0u);
  EXPECT_EQ(failed.patched_jobs, 0u);
  EXPECT_EQ(failed.patch_fallbacks, 0u);
#endif

  const JobStatus status = resubmit_against(keys.front());
  ASSERT_EQ(status.state, JobState::kDone);
  EXPECT_FALSE(status.patched);

  const SchedulerStats after = scheduler.stats();
  EXPECT_EQ(after.watch_context_misses, 1u);
  EXPECT_EQ(after.patched_jobs, 0u);
  EXPECT_EQ(after.patch_fallbacks, 0u);
  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
}

// A resubmit against a resident watch context takes its base bundle from
// the context instead of reading and parsing the cached original. Along
// two edit chains, a scheduler that keeps contexts and one that keeps
// none reconstruct the same bundles (canonical text and cache key) and
// publish the same anonymized bytes.
TEST(WatchMode, ResidentBaseMatchesTheCachedBaseAlongEditChains) {
  const std::vector<std::pair<std::string, ConfigSet>> networks = {
      {"uscarrier", make_uscarrier()}, {"fattree08", make_fattree08()}};
  for (const auto& [name, network] : networks) {
    ArtifactCache resident_cache(fresh_dir("watch_resident_" + name));
    JobScheduler resident(&resident_cache, {});
    JobScheduler::Options no_contexts;
    no_contexts.watch_context_capacity = 0;
    ArtifactCache cached_cache(fresh_dir("watch_cached_" + name));
    JobScheduler cached(&cached_cache, no_contexts);

    // Waits for `outcome` and returns its cache key ("" on failure).
    const auto finished_key = [](JobScheduler& scheduler,
                                 const SubmitOutcome& outcome) {
      EXPECT_TRUE(outcome.accepted()) << outcome.error;
      if (!outcome.accepted()) return std::string();
      EXPECT_TRUE(scheduler.wait(*outcome.id));
      const auto status = scheduler.status(*outcome.id);
      EXPECT_TRUE(status.has_value() && status->state == JobState::kDone);
      return status.has_value() ? status->cache_key : std::string();
    };
    const auto submit = [&](JobScheduler& scheduler) {
      JobRequest request;
      request.configs = network;
      request.options = small_options(5);
      return finished_key(scheduler, scheduler.submit_ex(std::move(request)));
    };
    std::string resident_key = submit(resident);
    std::string cached_key = submit(cached);
    ASSERT_FALSE(resident_key.empty());
    ASSERT_EQ(resident_key, cached_key);
    // The anonymized bytes a scheduler published under `hex`.
    const auto published = [](ArtifactCache& cache, const std::string& hex) {
      const auto entry = cache.lookup_by_hex(hex);
      EXPECT_TRUE(entry.has_value());
      return entry.has_value() ? entry->artifacts.anonymized_configs
                               : std::string();
    };

    ConfigSet current = canonicalize(network);
    constexpr int kEdits = 3;
    for (int edit = 0; edit < kEdits; ++edit) {
      ConfigSet next = current;
      RouterConfig& router =
          next.routers[static_cast<std::size_t>(edit * 7) %
                       next.routers.size()];
      ASSERT_TRUE(router.ospf.has_value()) << router.hostname;
      PrefixList list;
      list.name = "WATCH-CHAIN-" + std::to_string(edit);
      list.add_deny(Ipv4Prefix{
          Ipv4Address{10, 224, static_cast<std::uint8_t>(edit), 0}, 24});
      list.add_permit_all();
      router.prefix_lists.push_back(std::move(list));
      router.ospf->distribute_lists.push_back(DistributeList{
          "WATCH-CHAIN-" + std::to_string(edit),
          router.interfaces.front().name});
      const std::string diff = render_bundle_diff(current, next);
      const auto resubmit = [&](JobScheduler& scheduler,
                                const std::string& base_key) {
        ResubmitRequest request;
        request.base_key_hex = base_key;
        request.diff_text = diff;
        request.options = small_options(5);
        return finished_key(scheduler, scheduler.resubmit(std::move(request)));
      };
      resident_key = resubmit(resident, resident_key);
      cached_key = resubmit(cached, cached_key);
      ASSERT_FALSE(resident_key.empty()) << name << " edit " << edit;
      EXPECT_EQ(resident_key, cached_key) << name << " edit " << edit;
      const auto resident_original =
          resident_cache.lookup_original(resident_key);
      const auto cached_original = cached_cache.lookup_original(cached_key);
      ASSERT_TRUE(resident_original && cached_original);
      EXPECT_EQ(*resident_original, *cached_original);
      EXPECT_EQ(*resident_original, canonical_config_set_text(next));
      EXPECT_EQ(published(resident_cache, resident_key),
                published(cached_cache, cached_key))
          << name << " edit " << edit;
      current = std::move(next);
    }
    const SchedulerStats with_contexts = resident.stats();
    const auto edits = static_cast<std::uint64_t>(kEdits);
    EXPECT_EQ(with_contexts.resident_bases, edits);
    EXPECT_EQ(with_contexts.patched_jobs, edits);
    EXPECT_EQ(cached.stats().resident_bases, 0u);
    resident.shutdown(JobScheduler::ShutdownMode::kDrain);
    cached.shutdown(JobScheduler::ShutdownMode::kDrain);
  }
}

TEST(WatchMode, ResubmitAgainstUnknownBaseIsPermanentRejection) {
  ArtifactCache cache(fresh_dir("watch_unknown_base"));
  JobScheduler scheduler(&cache, {});
  ResubmitRequest request;
  request.base_key_hex = "00000000deadbeef";
  request.diff_text = std::string(kBundleDiffHeader) + "\n";
  request.options = small_options(7);
  const SubmitOutcome outcome = scheduler.resubmit(std::move(request));
  EXPECT_FALSE(outcome.accepted());
  // Permanent for this request: the client recovers with a full submit,
  // not by retrying the resubmit.
  EXPECT_EQ(outcome.retry_after_ms, 0u);
  EXPECT_FALSE(outcome.error.empty());
  scheduler.shutdown(JobScheduler::ShutdownMode::kCancelPending);
}

}  // namespace
}  // namespace confmask
