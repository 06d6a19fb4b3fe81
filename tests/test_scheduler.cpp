// JobScheduler: concurrent distinct jobs complete with their own
// diagnostics, resubmission is a byte-identical cache hit that runs zero
// simulations, admission control rejects loudly, failed jobs are never
// cached, and shutdown mid-queue leaves no partial cache entries. The
// concurrent tests are part of the TSan workload in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/job_scheduler.hpp"

#if defined(CONFMASK_FAULT_INJECTION)
#include "src/util/io_shim.hpp"
#include "tests/fault_injection.hpp"
#include "tests/json_checker.hpp"
#endif

namespace confmask {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("confmask_" + name);
  fs::remove_all(dir);
  return dir;
}

JobRequest figure2_request(std::uint64_t seed) {
  JobRequest request;
  request.configs = make_figure2();
  request.options.k_r = 2;
  request.options.k_h = 2;
  request.options.seed = seed;
  return request;
}

TEST(JobScheduler, ConcurrentDistinctJobsAllCompleteWithOwnDiagnostics) {
  ArtifactCache cache(fresh_dir("sched_concurrent"));
  JobScheduler::Options options;
  options.max_concurrent_jobs = 3;
  std::mutex traced_mutex;
  std::vector<std::pair<std::uint64_t, std::string>> traced;
  options.trace_listener = [&](std::uint64_t job, std::string_view line) {
    const std::lock_guard<std::mutex> lock(traced_mutex);
    traced.emplace_back(job, std::string(line));
  };
  JobScheduler scheduler(&cache, options);

  std::vector<std::uint64_t> ids;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto id = scheduler.submit_ex(figure2_request(seed)).id;
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  std::vector<std::string> keys;
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(scheduler.wait(id));
    const auto status = scheduler.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kDone) << "job " << id;
    EXPECT_FALSE(status->cache_hit) << "job " << id;
    keys.push_back(status->cache_key);
    const auto result = scheduler.result(id);
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->artifacts.anonymized_configs.empty());
    // The job's own diagnostics artifact reports its success.
    EXPECT_NE(result->artifacts.diagnostics_json.find("\"ok\": true"),
              std::string::npos)
        << "job " << id;
    EXPECT_NE(result->artifacts.metrics_json.find("confmask.metrics/1"),
              std::string::npos);
  }
  // Distinct seeds → distinct cache keys → three stored entries.
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_NE(keys[1], keys[2]);
  EXPECT_EQ(cache.entry_count(), 3u);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.simulations, 0u);

  // Every trace line reaches the listener with the id of the job its tag
  // names.
  const std::lock_guard<std::mutex> lock(traced_mutex);
  EXPECT_FALSE(traced.empty());
  for (const auto& [job, line] : traced) {
    const std::string tag = "{\"job\": \"job-" + std::to_string(job) + "\"";
    EXPECT_EQ(line.rfind(tag, 0), 0u) << line;
  }
}

TEST(JobScheduler, ResubmitOfCompletedJobIsByteIdenticalCacheHit) {
  ArtifactCache cache(fresh_dir("sched_resubmit"));
  JobScheduler scheduler(&cache, {});

  const auto first = scheduler.submit_ex(figure2_request(7)).id;
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(scheduler.wait(*first));
  const auto first_status = scheduler.status(*first);
  ASSERT_TRUE(first_status.has_value());
  ASSERT_EQ(first_status->state, JobState::kDone);
  EXPECT_FALSE(first_status->cache_hit);
  const auto first_result = scheduler.result(*first);
  ASSERT_TRUE(first_result.has_value());
  const std::uint64_t sims_after_first = scheduler.stats().simulations;
  EXPECT_GT(sims_after_first, 0u);

  const auto second = scheduler.submit_ex(figure2_request(7)).id;
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(scheduler.wait(*second));
  const auto second_status = scheduler.status(*second);
  ASSERT_TRUE(second_status.has_value());
  EXPECT_EQ(second_status->state, JobState::kDone);
  EXPECT_TRUE(second_status->cache_hit);
  EXPECT_EQ(second_status->cache_key, first_status->cache_key);

  // Byte-identical artifacts, zero additional simulations.
  const auto second_result = scheduler.result(*second);
  ASSERT_TRUE(second_result.has_value());
  EXPECT_TRUE(second_result->cache_hit);
  EXPECT_EQ(second_result->artifacts.anonymized_configs,
            first_result->artifacts.anonymized_configs);
  EXPECT_EQ(second_result->artifacts.diagnostics_json,
            first_result->artifacts.diagnostics_json);
  EXPECT_EQ(second_result->artifacts.metrics_json,
            first_result->artifacts.metrics_json);
  EXPECT_EQ(scheduler.stats().simulations, sims_after_first);
  EXPECT_EQ(scheduler.stats().cache.hits, 1u);
}

TEST(JobScheduler, DeviceOrderDoesNotDefeatTheCache) {
  ArtifactCache cache(fresh_dir("sched_order"));
  JobScheduler scheduler(&cache, {});
  const auto first = scheduler.submit_ex(figure2_request(5)).id;
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(scheduler.wait(*first));

  JobRequest reordered = figure2_request(5);
  std::reverse(reordered.configs.routers.begin(),
               reordered.configs.routers.end());
  const auto second = scheduler.submit_ex(std::move(reordered)).id;
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(scheduler.wait(*second));
  const auto status = scheduler.status(*second);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->cache_hit);
}

#if defined(CONFMASK_FAULT_INJECTION)
TEST(JobScheduler, FailedJobsReportTaxonomyAndAreNeverCached) {
  ArtifactCache cache(fresh_dir("sched_failed"));
  JobScheduler scheduler(&cache, {});
  // An unconverged Algorithm 1 has no fallback rung: the run fails closed
  // on its first attempt with a deterministic NonConvergent verdict.
  const ScopedFault fault(faults::kRouteEquivalenceNonConvergent, 1);
  const auto id = scheduler.submit_ex(figure2_request(1)).id;
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(scheduler.wait(*id));
  const auto status = scheduler.status(*id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->error_stage, "RouteEquivalence");
  EXPECT_EQ(status->error_category, "NonConvergent");
  EXPECT_EQ(status->exit_code, 12);  // taxonomy band, not a generic 1
  // Failure diagnostics are available; configs are not (fail closed).
  const auto result = scheduler.result(*id);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->artifacts.anonymized_configs.empty());
  EXPECT_NE(result->artifacts.diagnostics_json.find("\"ok\": false"),
            std::string::npos);
  EXPECT_NE(result->artifacts.diagnostics_json.find("\"attempts\": 1,"),
            std::string::npos);
  EXPECT_NE(result->artifacts.diagnostics_json.find("\"fallbacks\": []"),
            std::string::npos);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

// A run that verifies but cannot be published fails the job. Its status
// reads as publish failures always have, and result() returns the run's
// own diagnostics marked failed: its attempts and phases, with the
// publish error at the Verification stage.
TEST(JobScheduler, PublishFailureKeepsTheRunsDiagnostics) {
  ArtifactCache cache(fresh_dir("sched_publish_failure"));
  JobScheduler scheduler(&cache, {});
  std::uint64_t id = 0;
  {
    // No journal is attached, so the first write after admission is the
    // publish's.
    const ScopedFault fault(io::kFaultEnospc, 1);
    const auto submitted = scheduler.submit_ex(figure2_request(41)).id;
    ASSERT_TRUE(submitted.has_value());
    id = *submitted;
    ASSERT_TRUE(scheduler.wait(id));
  }
  const auto status = scheduler.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->error_stage, "Verification");
  EXPECT_EQ(status->error_category, "ResourceExhausted");
  EXPECT_EQ(status->error_message.rfind("artifact publish failed: ", 0), 0u)
      << status->error_message;
  EXPECT_EQ(status->exit_code, 11);
  EXPECT_FALSE(status->patched);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
  EXPECT_EQ(scheduler.stats().completed, 0u);

  const auto result = scheduler.result(id);
  ASSERT_TRUE(result.has_value());
  const std::string& diagnostics = result->artifacts.diagnostics_json;
  EXPECT_TRUE(JsonChecker(diagnostics).valid()) << diagnostics;
  const std::vector<std::string> fields = {
      "\"ok\": false", "\"stage\": \"Verification\"",
      "\"category\": \"ResourceExhausted\"", "\"exit_code\": 11",
      "\"message\": \"" + status->error_message + "\"",
      "\"path\": \"route_equivalence\""};
  for (const std::string& field : fields) {
    EXPECT_NE(diagnostics.find(field), std::string::npos)
        << field << "\n" << diagnostics;
  }
  const std::string attempts = "\"attempts\": ";
  const std::size_t at = diagnostics.find(attempts);
  ASSERT_NE(at, std::string::npos) << diagnostics;
  EXPECT_GE(std::stoi(diagnostics.substr(at + attempts.size())), 1);
}
#endif

TEST(JobScheduler, AdmissionControlRejectsBeyondMaxPending) {
  ArtifactCache cache(fresh_dir("sched_admission"));
  JobScheduler::Options options;
  options.max_pending = 0;  // every submission exceeds the pending budget
  JobScheduler scheduler(&cache, options);
  EXPECT_FALSE(scheduler.submit_ex(figure2_request(1)).accepted());
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_EQ(scheduler.stats().submitted, 0u);
}

TEST(JobScheduler, ShutdownMidQueueCancelsPendingAndLeavesNoPartialEntries) {
  const fs::path root = fresh_dir("sched_shutdown");
  ArtifactCache cache(root);
  JobScheduler::Options options;
  options.max_concurrent_jobs = 1;  // force a deep queue
  JobScheduler scheduler(&cache, options);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto id = scheduler.submit_ex(figure2_request(seed)).id;
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  scheduler.shutdown(JobScheduler::ShutdownMode::kCancelPending);

  // Every job is terminal: the running ones completed (fail-closed jobs
  // are never abandoned mid-flight), the queued ones cancelled cleanly.
  std::size_t done = 0;
  std::size_t cancelled = 0;
  for (const std::uint64_t id : ids) {
    const auto status = scheduler.status(id);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::kDone) {
      ++done;
    } else {
      EXPECT_EQ(status->state, JobState::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(done + cancelled, ids.size());
  EXPECT_GT(cancelled, 0u);  // with 1 worker and 5 jobs, some were queued

  // The cache holds only COMPLETE entries — exactly one per done job, no
  // staging litter published, nothing half-written.
  EXPECT_EQ(cache.entry_count(), done);
  for (const auto& entry : fs::directory_iterator(root / "entries")) {
    EXPECT_TRUE(fs::exists(entry.path() / "meta.json"));
    EXPECT_TRUE(fs::exists(entry.path() / "anonymized.cfgset"));
    EXPECT_TRUE(fs::exists(entry.path() / "diagnostics.json"));
    EXPECT_TRUE(fs::exists(entry.path() / "metrics.json"));
  }

  // Post-shutdown submissions are rejected, not silently dropped.
  EXPECT_FALSE(scheduler.submit_ex(figure2_request(9)).accepted());
}

TEST(JobScheduler, DrainShutdownFinishesQueuedJobs) {
  ArtifactCache cache(fresh_dir("sched_drain"));
  JobScheduler::Options options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(&cache, options);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto id = scheduler.submit_ex(figure2_request(seed)).id;
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
  for (const std::uint64_t id : ids) {
    const auto status = scheduler.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kDone) << "job " << id;
  }
  EXPECT_EQ(cache.entry_count(), 3u);
}

TEST(JobScheduler, CancelDequeuesAQueuedJob) {
  ArtifactCache cache(fresh_dir("sched_cancel"));
  JobScheduler::Options options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(&cache, options);
  const auto first = scheduler.submit_ex(figure2_request(1)).id;
  const auto second = scheduler.submit_ex(figure2_request(2)).id;
  const auto third = scheduler.submit_ex(figure2_request(3)).id;
  ASSERT_TRUE(first && second && third);
  // With one worker, at least the LAST submission is still queued right
  // now — but any of them may have started; accept either outcome and
  // verify the invariant: cancel succeeds iff the job was queued.
  const bool cancelled = scheduler.cancel(*third);
  ASSERT_TRUE(scheduler.wait(*first));
  ASSERT_TRUE(scheduler.wait(*second));
  ASSERT_TRUE(scheduler.wait(*third));
  const auto status = scheduler.status(*third);
  ASSERT_TRUE(status.has_value());
  if (cancelled) {
    EXPECT_EQ(status->state, JobState::kCancelled);
    EXPECT_FALSE(scheduler.result(*third).has_value());
  } else {
    EXPECT_EQ(status->state, JobState::kDone);
  }
  EXPECT_FALSE(scheduler.cancel(*first));  // terminal jobs can't cancel
  EXPECT_FALSE(scheduler.cancel(9999));    // unknown id
}

TEST(JobScheduler, ExpiredDeadlineIsDeadlineExceededAndNeverCached) {
  ArtifactCache cache(fresh_dir("sched_deadline_queued"));
  JobScheduler::Options options;
  options.max_concurrent_jobs = 1;
  JobScheduler scheduler(&cache, options);
  // Occupy the single worker, then submit a job whose 1ms budget is
  // certain to expire while it waits in the queue: the deterministic
  // "already expired at dequeue" path.
  const auto busy = scheduler.submit_ex(figure2_request(1)).id;
  ASSERT_TRUE(busy.has_value());
  JobRequest doomed = figure2_request(2);
  doomed.deadline_ms = 1;
  const SubmitOutcome outcome = scheduler.submit_ex(std::move(doomed));
  ASSERT_TRUE(outcome.accepted());
  ASSERT_TRUE(scheduler.wait(*outcome.id));
  const auto status = scheduler.status(*outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->error_category, "DeadlineExceeded");
  EXPECT_EQ(status->exit_code, 15);
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1u);
  // Never cached — and failure diagnostics tell the whole story.
  const auto result = scheduler.result(*outcome.id);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->artifacts.anonymized_configs.empty());
  EXPECT_NE(result->artifacts.diagnostics_json.find("\"ok\": false"),
            std::string::npos);
  ASSERT_TRUE(scheduler.wait(*busy));
  EXPECT_EQ(cache.entry_count(), 1u);  // only the healthy job published

  // The daemon keeps serving: the next submission completes normally.
  const auto after = scheduler.submit_ex(figure2_request(3)).id;
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(scheduler.wait(*after));
  EXPECT_EQ(scheduler.status(*after)->state, JobState::kDone);
}

// A deadline too far out for steady_clock is no deadline: the job runs to
// completion instead of failing at once as DeadlineExceeded.
TEST(JobScheduler, DeadlinePastTheClockRangeFinishesDone) {
  ArtifactCache cache(fresh_dir("sched_deadline_far"));
  JobScheduler scheduler(&cache, {});
  JobRequest far = figure2_request(6);
  far.deadline_ms = ~std::uint64_t{0};
  const SubmitOutcome outcome = scheduler.submit_ex(std::move(far));
  ASSERT_TRUE(outcome.accepted());
  ASSERT_TRUE(scheduler.wait(*outcome.id));
  const auto status = scheduler.status(*outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone) << status->error_message;
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 0u);
}

TEST(JobScheduler, MidRunDeadlineExpiryStopsAtAPhaseBoundary) {
  ArtifactCache cache(fresh_dir("sched_deadline_midrun"));
  JobScheduler scheduler(&cache, {});
  // The worker is idle, so the job STARTS within its budget — but a
  // carrier-scale pipeline takes orders of magnitude longer than 2ms, so
  // expiry lands mid-run and the cooperative poll points must stop it at the
  // next phase boundary (a Figure 2 job would finish before the budget ran
  // out, turning this into a no-op test).
  JobRequest doomed;
  doomed.configs = make_uscarrier();
  doomed.options.k_r = 2;
  doomed.options.k_h = 2;
  doomed.options.seed = 4;
  doomed.deadline_ms = 2;
  const SubmitOutcome outcome = scheduler.submit_ex(std::move(doomed));
  ASSERT_TRUE(outcome.accepted());
  ASSERT_TRUE(scheduler.wait(*outcome.id));
  const auto status = scheduler.status(*outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->error_category, "DeadlineExceeded");
  EXPECT_EQ(status->exit_code, 15);
  EXPECT_EQ(cache.entry_count(), 0u);  // expired work is never published
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1u);
}

TEST(JobScheduler, CancelOfARunningJobStopsCooperatively) {
  ArtifactCache cache(fresh_dir("sched_cancel_running"));
  JobScheduler scheduler(&cache, {});
  const auto id = scheduler.submit_ex(figure2_request(5)).id;
  ASSERT_TRUE(id.has_value());
  // Wait until the job is actually RUNNING, then fire its token.
  for (int i = 0; i < 2000; ++i) {
    const auto status = scheduler.status(*id);
    ASSERT_TRUE(status.has_value());
    if (status->state != JobState::kQueued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool accepted = scheduler.cancel(*id);
  ASSERT_TRUE(scheduler.wait(*id));
  const auto status = scheduler.status(*id);
  ASSERT_TRUE(status.has_value());
  if (accepted && status->state == JobState::kCancelled) {
    // The common path: the poll points observed the token mid-pipeline.
    EXPECT_EQ(status->error_category, "DeadlineExceeded");
    EXPECT_EQ(scheduler.stats().cancelled, 1u);
    EXPECT_EQ(cache.entry_count(), 0u);
  } else {
    // The benign race: the pipeline finished before (or exactly as) the
    // token fired. Completion must then be fully intact.
    EXPECT_EQ(status->state, JobState::kDone);
    EXPECT_EQ(cache.entry_count(), 1u);
  }
}

TEST(JobScheduler, QueueFullRejectionCarriesRetryAfterHint) {
  ArtifactCache cache(fresh_dir("sched_retry_after"));
  JobScheduler::Options options;
  options.max_pending = 0;  // every submission exceeds the pending budget
  options.retry_after_base_ms = 250;
  JobScheduler scheduler(&cache, options);
  const SubmitOutcome outcome = scheduler.submit_ex(figure2_request(1));
  EXPECT_FALSE(outcome.accepted());
  EXPECT_EQ(outcome.error, "queue full");
  // The hint is transient load-shedding advice: present, positive, and at
  // least the configured base.
  EXPECT_GE(outcome.retry_after_ms, 250u);
  EXPECT_LE(outcome.retry_after_ms, 10'000u);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(JobScheduler, JournalRecoveryReEnqueuesAcknowledgedJobs) {
  const fs::path journal_path =
      fresh_dir("sched_recover_journal") / "jobs.wal";
  const fs::path cache_dir = fresh_dir("sched_recover_cache");

  // "Crash" before the worker ever ran: journal an acknowledged submit by
  // hand, exactly as a daemon SIGKILLed right after the ack would leave it.
  JobRequest request = figure2_request(21);
  {
    JobJournal journal(journal_path);
    const CacheKey key =
        job_key(request, canonical_config_set_text(request.configs));
    ASSERT_TRUE(journal.append_submit(1, request, key));
  }

  // Restart: the scheduler must re-enqueue and complete the job under its
  // original id, converging to the same content-addressed artifact.
  JobJournal journal(journal_path);
  ASSERT_EQ(journal.recovery().pending.size(), 1u);
  ArtifactCache cache(cache_dir);
  JobScheduler::Options options;
  options.journal = &journal;
  JobScheduler scheduler(&cache, options);
  EXPECT_EQ(scheduler.stats().recovered, 1u);
  ASSERT_TRUE(scheduler.wait(1));
  const auto status = scheduler.status(1);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  const auto replayed = scheduler.result(1);
  ASSERT_TRUE(replayed.has_value());

  // A client resubmitting the same request (it never saw the result) gets
  // a cache hit with byte-identical artifacts — the convergence half of
  // the durability story.
  const SubmitOutcome resubmit = scheduler.submit_ex(std::move(request));
  ASSERT_TRUE(resubmit.accepted());
  ASSERT_TRUE(scheduler.wait(*resubmit.id));
  const auto second = scheduler.status(*resubmit.id);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->state, JobState::kDone);
  EXPECT_TRUE(second->cache_hit);
  const auto again = scheduler.result(*resubmit.id);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->artifacts.anonymized_configs,
            replayed->artifacts.anonymized_configs);
  EXPECT_EQ(again->artifacts.metrics_json, replayed->artifacts.metrics_json);
}

// Admission keys a job under its tenant, and so does recovery: a submit
// journaled under a named tenant runs to done after a restart, under its
// recorded key and tenant.
TEST(JobScheduler, JournaledSubmitUnderANamedTenantRunsAfterRestart) {
  const fs::path journal_path =
      fresh_dir("sched_tenant_recover_journal") / "jobs.wal";
  const fs::path cache_dir = fresh_dir("sched_tenant_recover_cache");
  JobRequest request = figure2_request(23);
  request.tenant = "acme";
  const CacheKey key =
      job_key(request, canonical_config_set_text(request.configs));
  {
    JobJournal journal(journal_path);
    ASSERT_TRUE(journal.append_submit(1, request, key));
  }

  JobJournal journal(journal_path);
  ArtifactCache cache(cache_dir);
  JobScheduler::Options options;
  options.journal = &journal;
  JobScheduler scheduler(&cache, options);
  ASSERT_TRUE(scheduler.wait(1));
  const auto status = scheduler.status(1);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone) << status->error_message;
  EXPECT_EQ(status->tenant, "acme");
  EXPECT_EQ(status->cache_key, key.hex());
  EXPECT_TRUE(cache.lookup(key).has_value());
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.tenants.at("acme").completed, 1u);
}

TEST(JobScheduler, JournalTombstonesKeepAnsweringAfterRestart) {
  const fs::path journal_path =
      fresh_dir("sched_tombstone_journal") / "jobs.wal";
  const fs::path cache_dir = fresh_dir("sched_tombstone_cache");
  std::string first_configs;
  std::uint64_t id = 0;
  {
    JobJournal journal(journal_path);
    ArtifactCache cache(cache_dir);
    JobScheduler::Options options;
    options.journal = &journal;
    JobScheduler scheduler(&cache, options);
    const SubmitOutcome outcome = scheduler.submit_ex(figure2_request(31));
    ASSERT_TRUE(outcome.accepted());
    id = *outcome.id;
    ASSERT_TRUE(scheduler.wait(id));
    const auto result = scheduler.result(id);
    ASSERT_TRUE(result.has_value());
    first_configs = result->artifacts.anonymized_configs;
    scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
  }

  // Restart: the completed job's id still answers (tombstone), and its
  // artifacts re-read from the cache byte-identically.
  JobJournal journal(journal_path);
  ArtifactCache cache(cache_dir);
  JobScheduler::Options options;
  options.journal = &journal;
  JobScheduler scheduler(&cache, options);
  const auto status = scheduler.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  const auto result = scheduler.result(id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->artifacts.anonymized_configs, first_configs);
  // New ids never collide with journaled history.
  const SubmitOutcome fresh = scheduler.submit_ex(figure2_request(32));
  ASSERT_TRUE(fresh.accepted());
  EXPECT_GT(*fresh.id, id);
}

}  // namespace
}  // namespace confmask
