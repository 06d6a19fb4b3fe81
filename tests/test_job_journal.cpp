// Write-ahead job journal: record round-trips survive reopen, torn tails
// are truncated (WAL discipline: nothing after the first bad record is
// trusted), replay is idempotent, terminal jobs compact to capped
// tombstones, and injected I/O faults fail the append loudly instead of
// acknowledging an un-journaled job.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/cache_key.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/job_scheduler.hpp"
#include "src/util/hash.hpp"

#if defined(CONFMASK_FAULT_INJECTION)
#include "fault_injection.hpp"
#include "src/util/io_shim.hpp"
#endif

namespace confmask {
namespace {

namespace fs = std::filesystem;

fs::path fresh_journal(const std::string& name) {
  const fs::path path =
      fs::path(testing::TempDir()) / ("confmask_journal_" + name) / "jobs.wal";
  fs::remove_all(path.parent_path());
  return path;
}

JobRequest sample_request(std::uint64_t seed) {
  JobRequest request;
  request.configs = make_figure2();
  request.options.k_r = 2;
  request.options.k_h = 2;
  request.options.seed = seed;
  request.options.noise_p = 0.125;
  request.deadline_ms = 30'000;
  return request;
}

/// The submit record of `request`, as admission would journal it.
std::string submit_record(std::uint64_t id, const JobRequest& request,
                          const CacheKey& key) {
  return JobJournal::encode_submit(
      id, request, key, canonical_config_set_text(request.configs));
}

CacheKey key_of(const JobRequest& request) {
  return job_key(request, canonical_config_set_text(request.configs));
}

JobStatus done_status(std::uint64_t id, const CacheKey& key) {
  JobStatus status;
  status.id = id;
  status.state = JobState::kDone;
  status.cache_key = key.hex();
  return status;
}

TEST(JobJournal, EncodedRecordsCarryValidCrcAndDetectCorruption) {
  const JobRequest request = sample_request(7);
  const CacheKey key = key_of(request);
  const std::string submit = submit_record(3, request, key);
  EXPECT_TRUE(JobJournal::crc_ok(submit));
  const std::string state = JobJournal::encode_state(done_status(3, key),
                                                     key.secondary);
  EXPECT_TRUE(JobJournal::crc_ok(state));

  // Any flipped byte — in the payload or in the CRC itself — is caught.
  for (const std::size_t victim :
       {std::size_t{10}, submit.size() / 2, submit.size() - 3}) {
    std::string corrupt = submit;
    corrupt[victim] = corrupt[victim] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(JobJournal::crc_ok(corrupt)) << "byte " << victim;
  }
  // A truncated record (the classic torn write) never passes.
  EXPECT_FALSE(JobJournal::crc_ok(submit.substr(0, submit.size() - 1)));
  EXPECT_FALSE(JobJournal::crc_ok(""));
}

// Admission hands the journal the canonical text it rendered for the
// cache key. The submit record is byte-identical to one that renders the
// request's bundle itself, also for a bundle submitted out of canonical
// order.
TEST(JobJournal, AdmissionRecordMatchesARenderedOne) {
  const fs::path path = fresh_journal("admission_text");
  const fs::path cache_dir =
      fs::path(testing::TempDir()) / "confmask_journal_admission_cache";
  fs::remove_all(cache_dir);
  JobRequest request = sample_request(5);
  std::reverse(request.configs.routers.begin(), request.configs.routers.end());
  std::reverse(request.configs.hosts.begin(), request.configs.hosts.end());
  const std::string text = canonical_config_set_text(request.configs);
  const CacheKey key = job_key(request, text);
  const std::string rendered = JobJournal::encode_submit(1, request, key, text);
  {
    JobJournal journal(path);
    ArtifactCache cache(cache_dir);
    JobScheduler scheduler(&cache, [&] {
      JobScheduler::Options options;
      options.journal = &journal;
      return options;
    }());
    const SubmitOutcome outcome = scheduler.submit_ex(request);
    ASSERT_TRUE(outcome.accepted()) << outcome.error;
    ASSERT_EQ(*outcome.id, 1u);
    scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
  }
  std::ifstream in(path);
  std::vector<std::string> submits;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\": \"submit\"") != std::string::npos) {
      submits.push_back(line);
    }
  }
  ASSERT_EQ(submits.size(), 1u);
  EXPECT_EQ(submits.front(), rendered);

  // The overload that renders for itself writes the same bytes.
  const fs::path other = fresh_journal("admission_rendered");
  {
    JobJournal journal(other);
    ASSERT_TRUE(journal.append_submit(1, request, key));
  }
  std::ifstream reread(other);
  std::string line;
  std::getline(reread, line);  // header
  std::getline(reread, line);
  EXPECT_EQ(line, rendered);
  fs::remove_all(cache_dir);
}

TEST(JobJournal, AcknowledgedSubmitSurvivesReopenWithFullRequest) {
  const fs::path path = fresh_journal("roundtrip");
  const JobRequest request = sample_request(42);
  const CacheKey key = key_of(request);
  {
    JobJournal journal(path);
    EXPECT_TRUE(journal.recovery().pending.empty());
    ASSERT_TRUE(journal.append_submit(9, request, key));
  }
  JobJournal reopened(path);
  const JournalRecovery& recovery = reopened.recovery();
  ASSERT_EQ(recovery.pending.size(), 1u);
  EXPECT_TRUE(recovery.terminal.empty());
  EXPECT_EQ(recovery.truncated_bytes, 0u);
  EXPECT_EQ(recovery.next_id, 10u);

  // The decoded request re-keys to the recorded key — the property that
  // guarantees the replayed job is byte-for-byte the acknowledged one.
  const RecoveredJob& job = recovery.pending.front();
  EXPECT_EQ(job.id, 9u);
  EXPECT_EQ(job.key, key);
  EXPECT_EQ(job.request.options.seed, 42u);
  EXPECT_EQ(job.request.options.noise_p, 0.125);
  EXPECT_EQ(job.request.deadline_ms, 30'000u);
}

/// `record` without its crc field.
std::string unsealed(const std::string& record) {
  return record.substr(0, record.rfind(", \"crc\": \"")) + "}";
}

/// The record `body` (a line without its crc field) with the crc field
/// the journal appends.
std::string sealed(std::string body) {
  const std::string crc = hex64(fnv1a64(body));
  body.pop_back();
  return body + ", \"crc\": \"" + crc + "\"}";
}

/// `record` as submit records were written while they carried the
/// `incremental` flag: the field ahead of `strategy`.
std::string with_incremental_field(const std::string& record, bool value) {
  std::string body = unsealed(record);
  body.insert(body.find("\"strategy\": "),
              std::string("\"incremental\": ") + (value ? "true" : "false") +
                  ", ");
  return sealed(std::move(body));
}

/// `record` as submit records were written while they carried the retired
/// iteration budget and the default retry policy: the budget ahead of
/// `fake_routers`, and the policy's `rp_*` fields last.
std::string with_budget_fields(const std::string& record, int budget = 64) {
  std::string body = unsealed(record);
  body.insert(body.find("\"fake_routers\": "),
              "\"max_equivalence_iterations\": " + std::to_string(budget) +
                  ", ");
  body.pop_back();
  body +=
      ", \"rp_max_reseeds\": 2, \"rp_k_r_floor\": 2, \"rp_k_r_step\": 1, "
      "\"rp_max_pool_expansions\": 2, \"rp_pool_widen_bits\": 2, "
      "\"rp_ladder\": \"64,128,256\", \"rp_diff_limit\": 16, "
      "\"rp_max_attempts\": 16}";
  return sealed(std::move(body));
}

// Submit records once carried an `incremental` flag, which no output byte
// depended on. Records with either value still decode, recover and re-key
// to the keys they were written with; the record digests pin them to the
// bytes the older writer produced.
TEST(JobJournal, RecordsCarryingTheRetiredIncrementalFlagRecover) {
  const fs::path path = fresh_journal("retired_incremental");
  { JobJournal journal(path); }  // writes the header
  struct Written {
    bool incremental;
    std::string record_digest;
    std::string key;
  };
  const Written written[] = {{true, "6a59a1205b9d13fb", "780d8e604938dca9"},
                             {false, "2037a68d17d4650a", "54724135b097ff50"}};
  {
    std::ofstream out(path, std::ios::app);
    for (std::size_t i = 0; i < std::size(written); ++i) {
      const JobRequest request = sample_request(21 + i);
      const std::string record = with_incremental_field(
          with_budget_fields(submit_record(4 + i, request, key_of(request))),
          written[i].incremental);
      EXPECT_TRUE(JobJournal::crc_ok(record));
      EXPECT_EQ(hex64(fnv1a64(record)), written[i].record_digest);
      out << record << '\n';
    }
  }
  JobJournal reopened(path);
  const JournalRecovery& recovery = reopened.recovery();
  EXPECT_TRUE(recovery.terminal.empty());
  EXPECT_EQ(recovery.dropped_records, 0u);
  ASSERT_EQ(recovery.pending.size(), std::size(written));
  for (std::size_t i = 0; i < std::size(written); ++i) {
    const RecoveredJob& job = recovery.pending[i];
    EXPECT_EQ(job.id, 4 + i);
    EXPECT_EQ(job.key.hex(), written[i].key);
    EXPECT_EQ(job.key, key_of(sample_request(21 + i)));
    EXPECT_EQ(job.request.options.seed, 21 + i);
    EXPECT_EQ(job.request.options.noise_p, 0.125);
  }
}

// Submit records once carried the iteration budget and the retry policy,
// both keyed. At their defaults, which no request could change, a record
// recovers and re-keys to the key it was written with; the digest pins it
// to the bytes the older writer produced.
TEST(JobJournal, RecordsCarryingTheRetiredBudgetRecover) {
  const fs::path path = fresh_journal("retired_budget");
  { JobJournal journal(path); }  // writes the header
  const JobRequest request = sample_request(31);
  const std::string record =
      with_budget_fields(submit_record(7, request, key_of(request)));
  EXPECT_TRUE(JobJournal::crc_ok(record));
  EXPECT_EQ(hex64(fnv1a64(record)), "dbb93ae118bbeedb");
  { std::ofstream(path, std::ios::app) << record << '\n'; }
  JobJournal reopened(path);
  const JournalRecovery& recovery = reopened.recovery();
  EXPECT_TRUE(recovery.terminal.empty());
  ASSERT_EQ(recovery.pending.size(), 1u);
  const RecoveredJob& job = recovery.pending.front();
  EXPECT_EQ(job.id, 7u);
  EXPECT_EQ(job.key.hex(), "e18c0590c8a62700");
  EXPECT_EQ(job.key, key_of(request));
  EXPECT_EQ(job.request.options.seed, 31u);
}

// A record written with a budget other than the default was keyed on it.
// Recovery cannot run that job any more, so the key check tombstones it
// instead of running a different job under its id.
TEST(JobJournal, RecordWithANonDefaultRetiredBudgetIsTombstoned) {
  const fs::path path = fresh_journal("retired_budget_128");
  { JobJournal journal(path); }  // writes the header
  const JobRequest request = sample_request(32);
  // The key the older writer derived for this request at budget 128.
  const CacheKey written{0x90a2fab3c7d61047ULL, 0x4eaceb40818ea87eULL};
  const std::string record =
      with_budget_fields(submit_record(8, request, written), 128);
  EXPECT_TRUE(JobJournal::crc_ok(record));
  EXPECT_EQ(hex64(fnv1a64(record)), "a4d12a0a660a43ef");
  { std::ofstream(path, std::ios::app) << record << '\n'; }
  JobJournal reopened(path);
  const JournalRecovery& recovery = reopened.recovery();
  EXPECT_TRUE(recovery.pending.empty());
  ASSERT_EQ(recovery.terminal.size(), 1u);
  const JobStatus& status = recovery.terminal.front().status;
  EXPECT_EQ(status.id, 8u);
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.cache_key, written.hex());
  EXPECT_NE(status.error_message.find("key mismatch"), std::string::npos)
      << status.error_message;
}

// Records once named the job's Step 2.1, and the key covered it. Every
// job now runs ConfMask's: a record naming a strawman decodes as ConfMask,
// fails the key check and is tombstoned instead of running another job
// under its id.
TEST(JobJournal, RecordNamingAStrawmanIsTombstoned) {
  const fs::path path = fresh_journal("strawman_record");
  { JobJournal journal(path); }  // writes the header
  const JobRequest request = sample_request(33);
  const std::string text = canonical_config_set_text(request.configs);
  // The key the older writer derived for this request under Strawman 1.
  const CacheKey written =
      compute_cache_key(text, request.options, RetryPolicy{},
                        EquivalenceStrategy::kStrawman1);
  ASSERT_NE(written, job_key(request, text));
  std::string body =
      unsealed(JobJournal::encode_submit(6, request, written, text));
  const std::string field = "\"strategy\": \"confmask\"";
  const std::size_t at = body.find(field);
  ASSERT_NE(at, std::string::npos);
  body.replace(at, field.size(), "\"strategy\": \"strawman1\"");
  const std::string record = sealed(std::move(body));
  ASSERT_TRUE(JobJournal::crc_ok(record));
  { std::ofstream(path, std::ios::app) << record << '\n'; }
  JobJournal reopened(path);
  const JournalRecovery& recovery = reopened.recovery();
  EXPECT_TRUE(recovery.pending.empty());
  ASSERT_EQ(recovery.terminal.size(), 1u);
  const JobStatus& status = recovery.terminal.front().status;
  EXPECT_EQ(status.id, 6u);
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.cache_key, written.hex());
  EXPECT_NE(status.error_message.find("key mismatch"), std::string::npos)
      << status.error_message;
}

// Admission keys a job under its tenant; recovery re-keys the decoded
// request the same way, so a pending submit of a named tenant recovers
// instead of failing the key check.
TEST(JobJournal, PendingSubmitUnderANamedTenantRecovers) {
  const fs::path path = fresh_journal("named_tenant");
  JobRequest request = sample_request(34);
  request.tenant = "acme";
  const CacheKey key = key_of(request);
  ASSERT_NE(key, key_of(sample_request(34)));  // the tenant is keyed
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.append_submit(5, request, key));
  }
  JobJournal reopened(path);
  const JournalRecovery& recovery = reopened.recovery();
  EXPECT_TRUE(recovery.terminal.empty());
  ASSERT_EQ(recovery.pending.size(), 1u);
  const RecoveredJob& job = recovery.pending.front();
  EXPECT_EQ(job.id, 5u);
  EXPECT_EQ(job.key, key);
  EXPECT_EQ(job.request.tenant, "acme");
  EXPECT_EQ(job.canonical_text,
            canonical_config_set_text(request.configs));
}

TEST(JobJournal, TerminalJobsCompactToTombstones) {
  const fs::path path = fresh_journal("tombstone");
  const JobRequest request = sample_request(1);
  const CacheKey key = key_of(request);
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.append_submit(1, request, key));
    ASSERT_TRUE(journal.append_state(done_status(1, key), key.secondary));
  }
  JobJournal reopened(path);
  EXPECT_TRUE(reopened.recovery().pending.empty());
  ASSERT_EQ(reopened.recovery().terminal.size(), 1u);
  const JournalTombstone& tomb = reopened.recovery().terminal.front();
  EXPECT_EQ(tomb.status.id, 1u);
  EXPECT_EQ(tomb.status.state, JobState::kDone);
  EXPECT_EQ(tomb.status.cache_key, key.hex());
  EXPECT_EQ(tomb.secondary, key.secondary);
}

TEST(JobJournal, TornTailIsTruncatedAndEarlierRecordsSurvive) {
  const fs::path path = fresh_journal("torn");
  const JobRequest request = sample_request(5);
  const CacheKey key = key_of(request);
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.append_submit(1, request, key));
  }
  // Simulate the crash: a record half-written when power died (no newline,
  // CRC never completed).
  const std::string torn = submit_record(2, request, key).substr(0, 40);
  {
    std::ofstream out(path, std::ios::app);
    out << torn;
  }
  JobJournal reopened(path);
  EXPECT_EQ(reopened.recovery().truncated_bytes, torn.size());
  ASSERT_EQ(reopened.recovery().pending.size(), 1u);
  EXPECT_EQ(reopened.recovery().pending.front().id, 1u);
}

TEST(JobJournal, NothingAfterACorruptRecordIsTrusted) {
  const fs::path path = fresh_journal("poison");
  const JobRequest request = sample_request(5);
  const CacheKey key = key_of(request);
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.append_submit(1, request, key));
  }
  // A corrupt COMPLETE line followed by a valid one: WAL discipline says
  // the valid-looking survivor may itself be a torn-write artifact, so
  // recovery must stop at the first bad record, not skip over it.
  std::string corrupt = submit_record(2, request, key);
  corrupt[corrupt.size() / 2] ^= 1;
  const std::string valid = submit_record(3, request, key);
  {
    std::ofstream out(path, std::ios::app);
    out << corrupt << "\n" << valid << "\n";
  }
  JobJournal reopened(path);
  ASSERT_EQ(reopened.recovery().pending.size(), 1u);
  EXPECT_EQ(reopened.recovery().pending.front().id, 1u);
  EXPECT_EQ(reopened.recovery().truncated_bytes,
            corrupt.size() + valid.size() + 2);
}

TEST(JobJournal, ReplayIsIdempotentAcrossRepeatedReopens) {
  const fs::path path = fresh_journal("idempotent");
  const JobRequest request = sample_request(13);
  const CacheKey key = key_of(request);
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.append_submit(1, request, key));
    ASSERT_TRUE(journal.append_submit(2, sample_request(14),
                                      key_of(sample_request(14))));
    ASSERT_TRUE(journal.append_state(done_status(1, key), key.secondary));
  }
  // Reopen twice: compaction must converge — the second recovery sees the
  // same world the first one did, byte-for-byte on disk too.
  std::string first_bytes;
  {
    JobJournal first(path);
    ASSERT_EQ(first.recovery().pending.size(), 1u);
    ASSERT_EQ(first.recovery().terminal.size(), 1u);
    std::ifstream in(path);
    first_bytes.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  JobJournal second(path);
  EXPECT_EQ(second.recovery().pending.size(), 1u);
  EXPECT_EQ(second.recovery().pending.front().id, 2u);
  EXPECT_EQ(second.recovery().terminal.size(), 1u);
  EXPECT_EQ(second.recovery().truncated_bytes, 0u);
  std::ifstream in(path);
  const std::string second_bytes{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  EXPECT_EQ(first_bytes, second_bytes);
}

TEST(JobJournal, TombstoneCapAgesOutTheOldestIds) {
  const fs::path path = fresh_journal("cap");
  const JobRequest request = sample_request(1);
  const CacheKey key = key_of(request);
  {
    JobJournal journal(path);
    for (std::uint64_t id = 1; id <= 5; ++id) {
      ASSERT_TRUE(journal.append_submit(id, request, key));
      ASSERT_TRUE(journal.append_state(done_status(id, key), key.secondary));
    }
  }
  JobJournal reopened(path, /*max_tombstones=*/2);
  ASSERT_EQ(reopened.recovery().terminal.size(), 2u);
  EXPECT_EQ(reopened.recovery().terminal[0].status.id, 4u);
  EXPECT_EQ(reopened.recovery().terminal[1].status.id, 5u);
  // Aged-out ids no longer answer — but fresh ids keep counting upward, so
  // no id is ever reused for a different job.
  EXPECT_EQ(reopened.recovery().next_id, 6u);
}

#if defined(CONFMASK_FAULT_INJECTION)

TEST(JobJournal, InjectedWriteFailureFailsTheAppendLoudly) {
  const fs::path path = fresh_journal("enospc");
  JobJournal journal(path);  // construct BEFORE arming: recovery also writes
  const JobRequest request = sample_request(3);
  const CacheKey key = key_of(request);
  std::string error;
  {
    const ScopedFault fault(io::kFaultEnospc, 1);
    EXPECT_FALSE(journal.append_submit(1, request, key, &error));
  }
  EXPECT_NE(error.find("journal write"), std::string::npos) << error;
  {
    const ScopedFault fault(io::kFaultFsyncFail, 1);
    EXPECT_FALSE(journal.append_submit(1, request, key, &error));
  }
  EXPECT_NE(error.find("journal fsync"), std::string::npos) << error;
  EXPECT_EQ(journal.stats().append_failures, 2u);

  // The journal is not poisoned: once the fault clears, appends land. The
  // ENOSPC attempt left no bytes; the fsync-failed attempt DID leave a
  // complete record, and replaying it is the harmless at-least-once side
  // of the WAL contract (the client was told "rejected", and a surplus
  // replay converges through the content-addressed cache).
  ASSERT_TRUE(journal.append_submit(2, request, key, &error)) << error;
  JobJournal reopened(path);
  ASSERT_EQ(reopened.recovery().pending.size(), 2u);
  EXPECT_EQ(reopened.recovery().pending.front().id, 1u);
  EXPECT_EQ(reopened.recovery().pending.back().id, 2u);
}

TEST(JobJournal, TornWriteMidAppendIsInvisibleAfterRecovery) {
  const fs::path path = fresh_journal("torn_fault");
  JobJournal journal(path);
  const JobRequest request = sample_request(3);
  const CacheKey key = key_of(request);
  ASSERT_TRUE(journal.append_submit(1, request, key));
  {
    // Half the record lands, the rest never will — exactly what a crash
    // mid-write leaves behind.
    const ScopedFault fault(io::kFaultShortWrite, 1);
    std::string error;
    EXPECT_FALSE(journal.append_submit(2, request, key, &error));
  }
  JobJournal reopened(path);
  EXPECT_GT(reopened.recovery().truncated_bytes, 0u);
  ASSERT_EQ(reopened.recovery().pending.size(), 1u);
  EXPECT_EQ(reopened.recovery().pending.front().id, 1u);
}

#endif  // CONFMASK_FAULT_INJECTION

}  // namespace
}  // namespace confmask
