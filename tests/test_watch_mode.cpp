// Watch mode end to end: patched re-anonymization is byte-identical to a
// cold run for filter-only edits, falls back (still byte-identical) on
// structural edits and on graft-hazard edits, and the scheduler's resubmit
// path reconstructs, patches and converges through the cache — including
// the delete-then-readd cycle landing back on the original cache entry.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/job_scheduler.hpp"
#include "src/util/ipv4.hpp"

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
/// bound as an OSPF distribute-list on the named router.
void bind_filter(ConfigSet& configs, const std::string& router_name) {
  RouterConfig* router = configs.find_router(router_name);
  ASSERT_NE(router, nullptr);
  ASSERT_TRUE(router->ospf.has_value());
  PrefixList list;
  list.name = "WATCH-TEST";
  list.add_deny(Ipv4Prefix{Ipv4Address{10, 200, 200, 0}, 24});
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
      run_pipeline_guarded(base, options, RetryPolicy{},
                           EquivalenceStrategy::kConfMask, nullptr, nullptr,
                           &capture);
  EXPECT_TRUE(run.ok());
  return finish_capture(capture);
}

/// Runs `edited` cold and patched and asserts byte-identical artifacts.
/// Returns the patched run's stats for reuse-depth assertions.
PipelineStats expect_patched_matches_cold(
    const ConfigSet& edited, const ConfMaskOptions& options,
    const PatchContext* context) {
  const auto cold =
      run_pipeline_guarded(edited, options, RetryPolicy{},
                           EquivalenceStrategy::kConfMask, nullptr, nullptr,
                           nullptr);
  const auto patched =
      run_pipeline_guarded(edited, options, RetryPolicy{},
                           EquivalenceStrategy::kConfMask, nullptr, context,
                           nullptr);
  EXPECT_TRUE(cold.ok());
  EXPECT_TRUE(patched.ok());
  EXPECT_EQ(canonical_config_set_text(cold.result->anonymized),
            canonical_config_set_text(patched.result->anonymized));
  return patched.result->stats;
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
      expect_patched_matches_cold(edited, options, context.get());
  // The filter-only edit must actually reuse captured state — otherwise
  // the patched path silently degraded to a cold run.
  EXPECT_GT(stats.patched_stages, 0);
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
      expect_patched_matches_cold(edited, options, context.get());
  // A new device shifts node ids: every snapshot must be rejected.
  EXPECT_EQ(stats.patched_stages, 0);
  EXPECT_GT(stats.patch_fallbacks, 0);
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
      expect_patched_matches_cold(edited, options, context.get());
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
    return run_pipeline_guarded(edited, options, RetryPolicy{},
                                EquivalenceStrategy::kConfMask, nullptr,
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
