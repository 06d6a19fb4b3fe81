// The fleet layer end to end: tenant-scoped submissions across a ring of
// confmaskd daemons, peer-fetch on the sharded artifact cache, fair-share
// admission, and the degradation contract (peer trouble costs latency,
// never a failed job).
//
// Daemon-level tests run real daemons over real unix sockets in-process;
// scheduler-level tests drive JobScheduler directly so the deficit-round-
// robin and single-flight paths run under TSan in CI.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/client.hpp"
#include "src/service/daemon.hpp"
#include "src/service/job_scheduler.hpp"
#include "src/service/json_line.hpp"
#include "src/service/shard_ring.hpp"

namespace confmask {
namespace {

namespace fs = std::filesystem;

std::string unique_socket(const std::string& tag) {
  return "/tmp/confmaskd_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

fs::path fresh_cache_dir(const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("confmask_fleet_" + tag + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

bool await_up(const std::string& endpoint) {
  const std::string stats_line = JsonWriter{}.string("op", "stats").str();
  for (int i = 0; i < 250; ++i) {
    if (client_roundtrip(endpoint, stats_line)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::string submit_line(std::uint64_t seed, const std::string& tenant = "") {
  JsonWriter out;
  out.string("op", "submit")
      .string("configs", canonical_config_set_text(make_figure2()))
      .number("k_r", 2)
      .number("k_h", 2)
      .number_u64("seed", seed);
  if (!tenant.empty()) out.string("tenant", tenant);
  return out.str();
}

std::optional<std::string> wait_terminal(const std::string& endpoint,
                                         std::uint64_t job) {
  const std::string status_line =
      JsonWriter{}.string("op", "status").number_u64("job", job).str();
  for (int i = 0; i < 2'000; ++i) {
    const auto response = client_roundtrip(endpoint, status_line);
    if (!response) return std::nullopt;
    const auto parsed = parse_json_line(*response);
    if (!parsed) return std::nullopt;
    const auto state = get_string(*parsed, "state");
    if (!state) return std::nullopt;
    if (*state == "done" || *state == "failed" || *state == "cancelled") {
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return std::nullopt;
}

void request_shutdown(const std::string& endpoint) {
  (void)client_roundtrip(endpoint,
                         "{\"op\": \"shutdown\", \"mode\": \"cancel\"}");
}

/// Submits `line`, asserts acceptance, returns (job id, cache_key hex).
std::pair<std::uint64_t, std::string> submit_ok(const std::string& endpoint,
                                                const std::string& line) {
  const auto response = client_roundtrip(endpoint, line);
  EXPECT_TRUE(response.has_value());
  if (!response) return {0, ""};
  const auto parsed = parse_json_line(*response);
  EXPECT_TRUE(parsed.has_value()) << *response;
  if (!parsed) return {0, ""};
  EXPECT_EQ(get_bool(*parsed, "ok"), true) << *response;
  const auto job = get_u64(*parsed, "job");
  const auto key = get_string(*parsed, "cache_key");
  EXPECT_TRUE(job.has_value() && key.has_value()) << *response;
  return {job.value_or(0), std::string(key.value_or(""))};
}

std::uint64_t stat_u64(const std::string& endpoint, const std::string& key) {
  const auto response =
      client_roundtrip(endpoint, JsonWriter{}.string("op", "stats").str());
  EXPECT_TRUE(response.has_value());
  if (!response) return 0;
  const auto parsed = parse_json_line(*response);
  EXPECT_TRUE(parsed.has_value());
  if (!parsed) return 0;
  return get_u64(*parsed, key).value_or(0);
}

std::string result_configs(const std::string& endpoint, std::uint64_t job) {
  const auto response = client_roundtrip(
      endpoint,
      JsonWriter{}.string("op", "result").number_u64("job", job).str());
  EXPECT_TRUE(response.has_value());
  if (!response) return "";
  const auto parsed = parse_json_line(*response);
  EXPECT_TRUE(parsed.has_value());
  if (!parsed) return "";
  EXPECT_EQ(get_bool(*parsed, "ok"), true);
  return std::string(get_string(*parsed, "configs").value_or(""));
}

// Acceptance tests (a) and (c): a job submitted on daemon 1 and then on
// daemon 2 completes on daemon 2 via peer-fetch — byte-identical artifacts
// with ZERO simulations run there — while the same configs under another
// tenant key elsewhere and run cold (namespaces never share an entry).
TEST(Fleet, PeerHitIsByteIdenticalAndTenantScoped) {
  const std::string s1 = unique_socket("fleet1");
  const std::string s2 = unique_socket("fleet2");
  const std::vector<std::string> members = {s1, s2};

  Daemon::Options o1;
  o1.socket_path = s1;
  o1.cache_dir = fresh_cache_dir("fleet1");
  o1.peers = members;
  Daemon::Options o2;
  o2.socket_path = s2;
  o2.cache_dir = fresh_cache_dir("fleet2");
  o2.peers = members;
  Daemon d1(o1);
  Daemon d2(o2);
  std::thread t1([&d1] { EXPECT_EQ(d1.run(), 0); });
  std::thread t2([&d2] { EXPECT_EQ(d2.run(), 0); });
  ASSERT_TRUE(await_up(s1));
  ASSERT_TRUE(await_up(s2));

  // Seed d1's cache under tenant A, then pick a job whose cache key d1
  // OWNS — only those keys will d2's miss path look up on d1. Keys are
  // content-derived, so which seed lands on d1 is fixed forever; 8
  // candidates make "none on d1" impossible in practice. A NAMED tenant
  // on purpose: the peer-fetch validation compares the entry's recorded
  // tenant, so this pins tenant attribution through store/serve/fetch
  // (a store() that drops the tenant turns every named-tenant peer hit
  // into a silent miss).
  const RendezvousRing ring(members, s1);
  std::uint64_t seed_on_d1 = 0;
  std::uint64_t job_on_d1 = 0;
  for (std::uint64_t seed = 1; seed <= 8 && seed_on_d1 == 0; ++seed) {
    const auto [job, key_hex] = submit_ok(s1, submit_line(seed, "tenant-a"));
    ASSERT_EQ(wait_terminal(s1, job), "done");
    if (ring.owner(std::stoull(key_hex, nullptr, 16)) == s1) {
      seed_on_d1 = seed;
      job_on_d1 = job;
    }
  }
  ASSERT_NE(seed_on_d1, 0u) << "no candidate key owned by d1";

  // Same job on d2: local miss, owner is d1, peer-fetch serves it.
  const std::uint64_t sims_before = stat_u64(s2, "simulations");
  const auto [peer_job, peer_key] =
      submit_ok(s2, submit_line(seed_on_d1, "tenant-a"));
  ASSERT_EQ(wait_terminal(s2, peer_job), "done");
  EXPECT_EQ(stat_u64(s2, "simulations"), sims_before)
      << "peer hit must not simulate locally";
  EXPECT_GE(stat_u64(s2, "peer_hits"), 1u);
  EXPECT_GE(stat_u64(s2, "tenant:tenant-a:peer_hits"), 1u);
  const std::string via_peer = result_configs(s2, peer_job);
  const std::string direct = result_configs(s1, job_on_d1);
  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(via_peer, direct) << "peer-fetched artifacts must be the bytes "
                                 "the owner published";

  // The SAME configs and seed under tenant "acme": the tenant is folded
  // into the key, so this is a different address — no peer hit, no shared
  // entry, a fresh local run on d2.
  const auto [acme_job, acme_key] =
      submit_ok(s2, submit_line(seed_on_d1, "acme"));
  EXPECT_NE(acme_key, peer_key);
  ASSERT_EQ(wait_terminal(s2, acme_job), "done");
  EXPECT_GT(stat_u64(s2, "simulations"), sims_before)
      << "a foreign-tenant submit must run cold";
  EXPECT_GE(stat_u64(s2, "tenant:acme:completed"), 1u);

  request_shutdown(s1);
  request_shutdown(s2);
  t1.join();
  t2.join();
  fs::remove_all(o1.cache_dir);
  fs::remove_all(o2.cache_dir);
}

// Acceptance test (d): a ring member that is simply gone (its socket was
// never bound) costs each remote-owned job one failed peer probe, after
// which the job computes locally and finishes "done" — never "failed".
TEST(Fleet, DeadPeerDegradesToLocalCompute) {
  const std::string live = unique_socket("fleetlive");
  const std::string dead = unique_socket("fleetdead");  // never bound

  Daemon::Options options;
  options.socket_path = live;
  options.cache_dir = fresh_cache_dir("dead");
  options.peers = {live, dead};
  options.peer_timeout_ms = 250;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(live));

  const RendezvousRing ring({live, dead}, live);
  int remote_owned = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto [job, key_hex] = submit_ok(live, submit_line(seed));
    if (ring.owner(std::stoull(key_hex, nullptr, 16)) == dead) {
      ++remote_owned;
    }
    ASSERT_EQ(wait_terminal(live, job), "done")
        << "a dead peer must never fail a job (seed " << seed << ")";
  }
  // Every remote-owned key probed the dead peer exactly once; local keys
  // never did. (At least one of 8 keys lands remote — content-derived and
  // fixed, so this is a build-time fact, not a flake.)
  ASSERT_GE(remote_owned, 1);
  EXPECT_EQ(stat_u64(live, "peer_misses"),
            static_cast<std::uint64_t>(remote_owned));
  EXPECT_EQ(stat_u64(live, "peer_hits"), 0u);

  request_shutdown(live);
  server.join();
  fs::remove_all(options.cache_dir);
}

// Per-tenant admission quotas plus the SIGHUP-style reload: a capped
// tenant's overflow is rejected with a retry hint while another tenant
// still admits instantly, and swapping the quota table at runtime
// (Daemon::request_reload — the test-callable spelling of SIGHUP) lifts
// the cap without a restart.
TEST(Fleet, QuotaRejectsWithRetryHintAndReloadLiftsTheCap) {
  const std::string sock = unique_socket("quota");
  const fs::path tenants_file =
      fs::path(testing::TempDir()) /
      ("confmask_quota_" + std::to_string(::getpid()) + ".tenants");
  {
    std::FILE* f = std::fopen(tenants_file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"tenant\": \"capped\", \"max_pending\": 1}\n", f);
    std::fclose(f);
  }

  Daemon::Options options;
  options.socket_path = sock;
  options.cache_dir = fresh_cache_dir("quota");
  options.max_concurrent_jobs = 1;
  options.tenants_file = tenants_file;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  ASSERT_TRUE(await_up(sock));

  // Occupy the single worker with a slower network so submissions queue.
  const std::string blocker_line =
      JsonWriter{}
          .string("op", "submit")
          .string("configs", canonical_config_set_text(make_enterprise()))
          .number("k_r", 2)
          .number("k_h", 2)
          .number_u64("seed", 77)
          .string("tenant", "capped")
          .str();
  const auto [blocker, blocker_key] = submit_ok(sock, blocker_line);
  // Wait until the blocker occupies the worker — while it is merely queued
  // it would itself fill the tenant's pending slot.
  const std::string blocker_status =
      JsonWriter{}.string("op", "status").number_u64("job", blocker).str();
  for (int i = 0; i < 250; ++i) {
    const auto response = client_roundtrip(sock, blocker_status);
    ASSERT_TRUE(response.has_value());
    if (get_string(*parse_json_line(*response), "state") != "queued") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // One queued job fills the tenant's max_pending=1...
  const auto [queued, queued_key] = submit_ok(sock, submit_line(1, "capped"));
  // ...so the next is shed with the tenant-scoped error and a backoff hint.
  const auto rejected = client_roundtrip(sock, submit_line(2, "capped"));
  ASSERT_TRUE(rejected.has_value());
  const auto parsed = parse_json_line(*rejected);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(get_bool(*parsed, "ok"), false);
  EXPECT_NE(get_string(*parsed, "error").value_or("").find("tenant queue"),
            std::string::npos)
      << *rejected;
  EXPECT_GT(get_u64(*parsed, "retry_after_ms").value_or(0), 0u);
  EXPECT_GE(stat_u64(sock, "tenant:capped:rejected"), 1u);

  // The saturating tenant's pushback is ITS problem: an idle tenant's
  // submit admits immediately on the same daemon.
  const auto [other_job, other_key] = submit_ok(sock, submit_line(3, "other"));

  // Lift the cap and reload — the rejected job is admittable again.
  {
    std::FILE* f = std::fopen(tenants_file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"tenant\": \"capped\", \"max_pending\": 8}\n", f);
    std::fclose(f);
  }
  daemon.request_reload();
  // The reload is consumed on the poll-loop tick; any roundtrip makes one.
  std::optional<std::pair<std::uint64_t, std::string>> readmitted;
  for (int i = 0; i < 250 && !readmitted; ++i) {
    const auto retry = client_roundtrip(sock, submit_line(2, "capped"));
    ASSERT_TRUE(retry.has_value());
    const auto reparsed = parse_json_line(*retry);
    ASSERT_TRUE(reparsed.has_value());
    if (get_bool(*reparsed, "ok") == true) {
      readmitted = {get_u64(*reparsed, "job").value_or(0), ""};
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(readmitted.has_value()) << "reload never lifted the quota";

  for (const std::uint64_t job :
       {blocker, queued, other_job, readmitted->first}) {
    EXPECT_EQ(wait_terminal(sock, job), "done");
  }
  request_shutdown(sock);
  server.join();
  fs::remove_all(options.cache_dir);
  fs::remove(tenants_file);
}

JobRequest make_job(std::uint64_t seed, const std::string& tenant,
                    bool enterprise = false) {
  JobRequest request;
  request.configs = enterprise ? make_enterprise() : make_figure2();
  request.options.k_r = 2;
  request.options.k_h = 2;
  request.options.seed = seed;
  request.tenant = tenant;
  return request;
}

// Acceptance test (b), at the scheduler layer so TSan sees it: a tenant
// saturating the queue cannot push an idle tenant's first job behind its
// backlog — deficit round-robin gives "quiet" a turn within one rotation,
// so quiet finishes while most of noisy's backlog is still waiting.
TEST(FleetScheduler, FairShareKeepsIdleTenantResponsive) {
  ArtifactCache cache(fresh_cache_dir("fair"), "stamp-fair");
  JobScheduler::Options options;
  options.max_concurrent_jobs = 1;
  std::mutex order_mutex;
  std::vector<std::string> completion_order;  // tenant per terminal event
  options.state_listener = [&](const JobStatus& status) {
    if (status.state == JobState::kDone) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      completion_order.push_back(status.tenant);
    }
  };
  JobScheduler scheduler(&cache, options);

  // The blocker pins the single worker while the backlog forms.
  std::vector<std::uint64_t> jobs;
  const auto blocker = scheduler.submit_ex(make_job(77, "noisy", true));
  ASSERT_TRUE(blocker.accepted());
  jobs.push_back(*blocker.id);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto out = scheduler.submit_ex(make_job(seed, "noisy"));
    ASSERT_TRUE(out.accepted());
    jobs.push_back(*out.id);
  }
  const auto quiet = scheduler.submit_ex(make_job(9, "quiet"));
  ASSERT_TRUE(quiet.accepted());
  jobs.push_back(*quiet.id);

  for (const std::uint64_t id : jobs) ASSERT_TRUE(scheduler.wait(id));
  ASSERT_EQ(scheduler.status(*quiet.id)->state, JobState::kDone);
  // wait() observes the terminal state under the scheduler mutex, but the
  // state listener fires outside it — give the last event a moment to land.
  for (int i = 0; i < 500; ++i) {
    {
      const std::lock_guard<std::mutex> lock(order_mutex);
      if (completion_order.size() == jobs.size()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::size_t quiet_position = 0;
  std::size_t noisy_after_quiet = 0;
  {
    const std::lock_guard<std::mutex> lock(order_mutex);
    ASSERT_EQ(completion_order.size(), jobs.size());
    for (std::size_t i = 0; i < completion_order.size(); ++i) {
      if (completion_order[i] == "quiet") quiet_position = i;
    }
    for (std::size_t i = quiet_position + 1; i < completion_order.size();
         ++i) {
      if (completion_order[i] == "noisy") ++noisy_after_quiet;
    }
  }
  // Round-robin with equal weights: quiet runs second or third overall
  // (after the in-flight blocker and at most one noisy quantum), never
  // behind the whole backlog. "At least 3 of 6 noisy jobs after quiet"
  // holds for every legal DRR interleaving but fails any FIFO regression.
  EXPECT_GE(noisy_after_quiet, 3u)
      << "quiet tenant finished " << quiet_position + 1 << " of "
      << completion_order.size() << " — starved behind the noisy backlog";

  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
  fs::remove_all(cache.root());
}

// Single-flight dedup: two concurrent submissions of the SAME key elect
// one leader; the other completes from the freshly published entry. Both
// finish "done", and exactly one pipeline ever runs — in every legal
// interleaving (leader+follower, or hit-after-done).
TEST(FleetScheduler, SingleFlightRunsOnePipelinePerKey) {
  // Reference: the exact simulation count of ONE solo run of this key
  // (pipelines run several simulations internally, so "one pipeline"
  // cannot be asserted as simulations == 1).
  std::uint64_t solo_simulations = 0;
  {
    ArtifactCache ref_cache(fresh_cache_dir("flightref"), "stamp-flight");
    JobScheduler reference(&ref_cache, {});
    const auto solo = reference.submit_ex(make_job(4, "acme"));
    ASSERT_TRUE(solo.accepted());
    ASSERT_TRUE(reference.wait(*solo.id));
    ASSERT_EQ(reference.status(*solo.id)->state, JobState::kDone);
    solo_simulations = reference.stats().simulations;
    reference.shutdown(JobScheduler::ShutdownMode::kDrain);
    fs::remove_all(ref_cache.root());
  }
  ASSERT_GT(solo_simulations, 0u);

  ArtifactCache cache(fresh_cache_dir("flight"), "stamp-flight");
  JobScheduler::Options options;
  options.max_concurrent_jobs = 2;
  JobScheduler scheduler(&cache, options);

  const auto first = scheduler.submit_ex(make_job(4, "acme"));
  const auto second = scheduler.submit_ex(make_job(4, "acme"));
  ASSERT_TRUE(first.accepted());
  ASSERT_TRUE(second.accepted());
  ASSERT_TRUE(scheduler.wait(*first.id));
  ASSERT_TRUE(scheduler.wait(*second.id));
  EXPECT_EQ(scheduler.status(*first.id)->state, JobState::kDone);
  EXPECT_EQ(scheduler.status(*second.id)->state, JobState::kDone);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.simulations, solo_simulations)
      << "twin submissions of one key must share one pipeline run";
  EXPECT_EQ(stats.cache.stores, 1u);
  const auto lhs = scheduler.result(*first.id);
  const auto rhs = scheduler.result(*second.id);
  ASSERT_TRUE(lhs && rhs);
  EXPECT_EQ(lhs->artifacts.anonymized_configs, rhs->artifacts.anonymized_configs);

  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
  fs::remove_all(cache.root());
}

// The scheduler-level peer path: every key owned by the (fake) remote
// member asks the callback first; a callback that cannot serve (nullopt —
// the timeout/transport case) degrades to local compute, and a callback
// that CAN serve completes the job with zero local simulations.
TEST(FleetScheduler, PeerCallbackMissComputesAndHitCompletes) {
  ArtifactCache cache(fresh_cache_dir("peercb"), "stamp-peer");
  const RendezvousRing ring({"self", "remote"}, "self");

  std::atomic<int> asked{0};
  std::optional<CacheArtifacts> canned;  // what the fake peer serves
  std::mutex canned_mutex;
  JobScheduler::Options options;
  options.max_concurrent_jobs = 1;
  options.ring = &ring;
  options.peer_fetch = [&](const std::string& owner, const CacheKey& key,
                           const std::string& tenant)
      -> std::optional<CacheArtifacts> {
    EXPECT_EQ(owner, "remote");
    EXPECT_EQ(tenant, "default");
    (void)key;
    asked.fetch_add(1);
    const std::lock_guard<std::mutex> lock(canned_mutex);
    return canned;
  };
  JobScheduler scheduler(&cache, options);

  // Find seeds on either side of the ring by keying submissions and
  // checking ownership of the keys the scheduler reports.
  std::uint64_t remote_seed = 0;
  std::vector<std::uint64_t> jobs;
  for (std::uint64_t seed = 1; seed <= 8 && remote_seed == 0; ++seed) {
    const auto out = scheduler.submit_ex(make_job(seed, "default"));
    ASSERT_TRUE(out.accepted());
    jobs.push_back(*out.id);
    ASSERT_TRUE(scheduler.wait(*out.id));
    ASSERT_EQ(scheduler.status(*out.id)->state, JobState::kDone);
    const std::string hex = scheduler.status(*out.id)->cache_key;
    if (!ring.self_owns(std::stoull(hex, nullptr, 16))) remote_seed = seed;
  }
  ASSERT_NE(remote_seed, 0u) << "no key owned by the remote member";
  const SchedulerStats after_miss = scheduler.stats();
  EXPECT_EQ(after_miss.peer_misses, static_cast<std::uint64_t>(asked.load()));
  EXPECT_GE(after_miss.peer_misses, 1u);
  EXPECT_EQ(after_miss.peer_hits, 0u);

  // Now the peer can serve: replay the remote-owned job under a NEW tenant
  // (fresh key, same owner side is not guaranteed — so brute-force a
  // remote-owned key again) with the callback returning real artifacts.
  const auto donor = scheduler.result(jobs.front());
  ASSERT_TRUE(donor.has_value());
  {
    const std::lock_guard<std::mutex> lock(canned_mutex);
    canned = donor->artifacts;
  }
  std::uint64_t hit_job = 0;
  for (std::uint64_t seed = 100; seed <= 116 && hit_job == 0; ++seed) {
    const auto out = scheduler.submit_ex(make_job(seed, "default"));
    ASSERT_TRUE(out.accepted());
    ASSERT_TRUE(scheduler.wait(*out.id));
    const auto status = scheduler.status(*out.id);
    ASSERT_EQ(status->state, JobState::kDone);
    if (!ring.self_owns(std::stoull(status->cache_key, nullptr, 16))) {
      hit_job = *out.id;
    }
  }
  ASSERT_NE(hit_job, 0u);
  const SchedulerStats after_hit = scheduler.stats();
  EXPECT_GE(after_hit.peer_hits, 1u);
  const auto served = scheduler.result(hit_job);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->artifacts.anonymized_configs,
            donor->artifacts.anonymized_configs)
      << "a peer hit must republish the owner's exact bytes";

  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
  fs::remove_all(cache.root());
}

}  // namespace
}  // namespace confmask
