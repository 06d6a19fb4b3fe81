// The serving layer's wire format and transport: flat JSON line
// parser/writer round-trips (including exact uint64 seeds), the protocol
// handler's submit/status/result/cancel/stats/shutdown surface, and a
// live confmaskd end-to-end over a real unix-domain socket.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/client.hpp"
#include "src/service/daemon.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/json_line.hpp"
#include "src/service/protocol.hpp"

namespace confmask {
namespace {

namespace fs = std::filesystem;

TEST(JsonLine, WriterOutputParsesBackExactly) {
  const std::string line = JsonWriter{}
                               .string("op", "submit")
                               .number("k_r", 6)
                               .real("noise_p", 0.1)
                               .boolean("ok", true)
                               .string("text", "a\"b\\c\nd\te")
                               .str();
  const auto parsed = parse_json_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(get_string(*parsed, "op"), "submit");
  EXPECT_EQ(get_int(*parsed, "k_r"), 6);
  EXPECT_EQ(get_double(*parsed, "noise_p"), 0.1);
  EXPECT_EQ(get_bool(*parsed, "ok"), true);
  EXPECT_EQ(get_string(*parsed, "text"), "a\"b\\c\nd\te");
}

TEST(JsonLine, U64SeedsSurviveAboveDoublePrecision) {
  // 2^53 + 1 is the first integer a double cannot represent; a seed up
  // there must still round-trip exactly through the wire format.
  const std::uint64_t seed = (1ULL << 53) + 1;
  const std::string line = JsonWriter{}.number_u64("seed", seed).str();
  const auto parsed = parse_json_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(get_u64(*parsed, "seed"), seed);
  // The double view is lossy here — that is exactly why get_u64 exists.
  EXPECT_EQ(get_u64(*parsed, "missing"), std::nullopt);

  const std::uint64_t max = 0xFFFFFFFFFFFFFFFFULL;
  const auto parsed_max =
      parse_json_line(JsonWriter{}.number_u64("seed", max).str());
  ASSERT_TRUE(parsed_max.has_value());
  EXPECT_EQ(get_u64(*parsed_max, "seed"), max);
}

TEST(JsonLine, ErrorReportingOverloadNamesTheDeviation) {
  std::string error;
  // Duplicate keys are the classic smuggling vector (two parsers, two
  // winners): the rejection must name the offending key out loud.
  EXPECT_FALSE(
      parse_json_line("{\"seed\": 1, \"seed\": 2}", &error).has_value());
  EXPECT_NE(error.find("duplicate key \"seed\""), std::string::npos) << error;
  EXPECT_FALSE(parse_json_line("{\"a\": 1} trailing", &error).has_value());
  EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
  EXPECT_FALSE(parse_json_line("{\"a\": \"unterminated", &error).has_value());
  EXPECT_NE(error.find("unterminated string"), std::string::npos) << error;
  EXPECT_FALSE(parse_json_line("[1]", &error).has_value());
  EXPECT_NE(error.find("expected '{'"), std::string::npos) << error;
  // A clean parse leaves the error untouched.
  error.clear();
  EXPECT_TRUE(parse_json_line("{\"a\": 1}", &error).has_value());
  EXPECT_TRUE(error.empty());
}

TEST(ClientBackoff, ScheduleGrowsHonorsHintAndStaysDeterministic) {
  RetryConfig config;
  config.base_ms = 100;
  config.max_delay_ms = 5'000;
  // Jitter is bounded: every delay within ±25% of the nominal exponential
  // value, and the cap is never exceeded.
  std::uint32_t previous_nominal = 0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const std::uint32_t delay = backoff_delay_ms(config, attempt, 0);
    const std::uint64_t nominal =
        std::min<std::uint64_t>(100ULL << (attempt - 1), 5'000);
    EXPECT_GE(delay, nominal - nominal / 4) << "attempt " << attempt;
    EXPECT_LE(delay, config.max_delay_ms) << "attempt " << attempt;
    EXPECT_GE(nominal, previous_nominal);
    previous_nominal = static_cast<std::uint32_t>(nominal);
  }
  // The server's own hint is a floor (before the cap): clients never
  // retry earlier than the daemon said capacity returns.
  EXPECT_GE(backoff_delay_ms(config, 1, 2'000), 2'000u - 2'000u / 4);
  EXPECT_LE(backoff_delay_ms(config, 1, 60'000), config.max_delay_ms);
  // Same config + attempt → same delay: the schedule is pinnable in tests
  // and differs across seeds so client bursts fan out.
  EXPECT_EQ(backoff_delay_ms(config, 3, 0), backoff_delay_ms(config, 3, 0));
  RetryConfig other = config;
  other.jitter_seed = 2;
  bool diverged = false;
  for (int attempt = 1; attempt <= 8 && !diverged; ++attempt) {
    diverged = backoff_delay_ms(config, attempt, 0) !=
               backoff_delay_ms(other, attempt, 0);
  }
  EXPECT_TRUE(diverged);
}

TEST(ClientBackoff, JitterNeverUndercutsServerHintAtTheBoundary) {
  RetryConfig config;
  config.base_ms = 100;
  config.max_delay_ms = 5'000;
  // The hint is the server's own earliest-capacity estimate: across many
  // jitter seeds and attempts, no delay may land below it. (The original
  // order applied jitter AFTER the hint clamp, so the downward half of the
  // window undercut the hint by up to 25% — a guaranteed re-rejection.)
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    config.jitter_seed = seed;
    for (int attempt = 1; attempt <= 6; ++attempt) {
      const std::uint32_t delay = backoff_delay_ms(config, attempt, 3'000);
      EXPECT_GE(delay, 3'000u) << "seed " << seed << " attempt " << attempt;
      EXPECT_LE(delay, config.max_delay_ms)
          << "seed " << seed << " attempt " << attempt;
    }
    // Hint exactly at the client's cap: no room in either direction.
    EXPECT_EQ(backoff_delay_ms(config, 1, 5'000), 5'000u);
  }
}

TEST(JsonLine, StrictParserRejectsEverythingOutsideTheSubset) {
  EXPECT_FALSE(parse_json_line("").has_value());
  EXPECT_FALSE(parse_json_line("[1, 2]").has_value());
  EXPECT_FALSE(parse_json_line("{\"a\": [1]}").has_value());   // array
  EXPECT_FALSE(parse_json_line("{\"a\": {\"b\": 1}}").has_value());  // nested
  EXPECT_FALSE(parse_json_line("{\"a\": null}").has_value());  // null
  EXPECT_FALSE(parse_json_line("{\"a\": 1,}").has_value());    // trailing ,
  EXPECT_FALSE(parse_json_line("{\"a\": 1} x").has_value());   // trailing
  EXPECT_FALSE(parse_json_line("{\"a\": 1, \"a\": 2}").has_value());  // dup
  EXPECT_FALSE(parse_json_line("{\"a\": 'x'}").has_value());
  EXPECT_TRUE(parse_json_line("{}").has_value());
  EXPECT_TRUE(parse_json_line("  {\"a\": -1.5e3}  ").has_value());
}

class ProtocolTest : public testing::Test {
 protected:
  static fs::path fresh_cache_dir() {
    const fs::path dir =
        fs::path(testing::TempDir()) /
        (std::string("confmask_proto_") +
         testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir);
    return dir;
  }

  ProtocolTest()
      : cache_(fresh_cache_dir()),
        scheduler_(&cache_, {}),
        handler_(&scheduler_, &cache_) {}

  ~ProtocolTest() override {
    scheduler_.shutdown(JobScheduler::ShutdownMode::kCancelPending);
    fs::remove_all(cache_.root());
  }

  JsonObject handle(const std::string& line,
                    ShutdownCommand* shutdown = nullptr) {
    const auto parsed = parse_json_line(handler_.handle(line, shutdown));
    EXPECT_TRUE(parsed.has_value());
    return parsed.value_or(JsonObject{});
  }

  std::string submit_line(std::uint64_t seed) {
    return JsonWriter{}
        .string("op", "submit")
        .string("configs", canonical_config_set_text(make_figure2()))
        .number("k_r", 2)
        .number("k_h", 2)
        .number_u64("seed", seed)
        .str();
  }

  /// A retired parameter is ignored like any unknown field: a submit that
  /// still carries `retired` (a `"name": value` member) keys like one
  /// without it and is served the same bytes.
  void expect_retired_field_ignored(const std::string& retired) {
    std::string flagged_line = submit_line(3);
    flagged_line.insert(flagged_line.size() - 1, ", " + retired);
    const JsonObject flagged = handle(flagged_line);
    ASSERT_EQ(get_bool(flagged, "ok"), true)
        << get_string(flagged, "error").value_or("");
    const JsonObject plain = handle(submit_line(3));
    ASSERT_EQ(get_bool(plain, "ok"), true);
    EXPECT_EQ(get_string(flagged, "cache_key"),
              get_string(plain, "cache_key"));
    std::vector<std::string> bundles;
    for (const JsonObject* submitted : {&flagged, &plain}) {
      const auto job = get_u64(*submitted, "job");
      ASSERT_TRUE(job.has_value());
      ASSERT_TRUE(scheduler_.wait(*job));
      const JsonObject result = handle(
          JsonWriter{}.string("op", "result").number_u64("job", *job).str());
      ASSERT_EQ(get_string(result, "state"), "done");
      bundles.push_back(get_string(result, "configs").value_or(""));
    }
    EXPECT_FALSE(bundles.front().empty());
    EXPECT_EQ(bundles.front(), bundles.back());
  }

  ArtifactCache cache_;
  JobScheduler scheduler_;
  ProtocolHandler handler_;
};

TEST_F(ProtocolTest, SubmitStatusResultLifecycle) {
  const JsonObject submitted = handle(submit_line(1));
  ASSERT_EQ(get_bool(submitted, "ok"), true);
  const auto job = get_u64(submitted, "job");
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(get_string(submitted, "cache_key")->size(), 16u);

  ASSERT_TRUE(scheduler_.wait(*job));
  const JsonObject status = handle(
      JsonWriter{}.string("op", "status").number_u64("job", *job).str());
  EXPECT_EQ(get_bool(status, "ok"), true);
  EXPECT_EQ(get_string(status, "state"), "done");
  EXPECT_EQ(get_bool(status, "cache_hit"), false);

  const JsonObject result = handle(
      JsonWriter{}.string("op", "result").number_u64("job", *job).str());
  EXPECT_EQ(get_bool(result, "ok"), true);
  const auto bundle = get_string(result, "configs");
  ASSERT_TRUE(bundle.has_value());
  // The artifact is a parseable anonymized network.
  const ConfigSet anonymized = parse_config_set(*bundle);
  EXPECT_GE(anonymized.routers.size(), make_figure2().routers.size());
  EXPECT_FALSE(get_string(result, "diagnostics")->empty());
  EXPECT_FALSE(get_string(result, "metrics")->empty());

  // Resubmission: same key, served from cache.
  const JsonObject resubmitted = handle(submit_line(1));
  const auto second = get_u64(resubmitted, "job");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(get_string(resubmitted, "cache_key"),
            get_string(submitted, "cache_key"));
  ASSERT_TRUE(scheduler_.wait(*second));
  const JsonObject second_status = handle(JsonWriter{}
                                              .string("op", "status")
                                              .number_u64("job", *second)
                                              .str());
  EXPECT_EQ(get_bool(second_status, "cache_hit"), true);

  const JsonObject stats =
      handle(JsonWriter{}.string("op", "stats").str());
  EXPECT_EQ(get_u64(stats, "submitted"), 2u);
  EXPECT_EQ(get_u64(stats, "completed"), 2u);
  EXPECT_EQ(get_u64(stats, "cache_hits"), 1u);
  EXPECT_EQ(get_u64(stats, "cache_stores"), 1u);
  EXPECT_EQ(get_string(stats, "stamp"), cache_.stamp());
}

TEST_F(ProtocolTest, ErrorsAreLoudAndTyped) {
  EXPECT_EQ(get_bool(handle("not json"), "ok"), false);
  EXPECT_EQ(get_bool(handle("{\"no_op\": 1}"), "ok"), false);
  EXPECT_EQ(get_bool(handle("{\"op\": \"frobnicate\"}"), "ok"), false);
  // submit without configs / with unparsable configs.
  EXPECT_EQ(get_bool(handle("{\"op\": \"submit\"}"), "ok"), false);
  const JsonObject bad_configs = handle(JsonWriter{}
                                            .string("op", "submit")
                                            .string("configs", "garbage")
                                            .str());
  EXPECT_EQ(get_bool(bad_configs, "ok"), false);
  EXPECT_FALSE(get_string(bad_configs, "error")->empty());
  // Wrong field kinds.
  EXPECT_EQ(
      get_bool(handle("{\"op\": \"status\", \"job\": \"one\"}"), "ok"),
      false);
  EXPECT_EQ(get_bool(handle("{\"op\": \"result\", \"job\": 999}"), "ok"),
            false);
  // Unknown shutdown mode does NOT set the flag.
  ShutdownCommand shutdown;
  EXPECT_EQ(get_bool(handle("{\"op\": \"shutdown\", \"mode\": \"halt\"}",
                            &shutdown),
                     "ok"),
            false);
  EXPECT_FALSE(shutdown.requested);
}

TEST_F(ProtocolTest, MalformedLinesGetNamedParseErrors) {
  const JsonObject duplicate =
      handle("{\"op\": \"submit\", \"seed\": 1, \"seed\": 2}");
  EXPECT_EQ(get_bool(duplicate, "ok"), false);
  EXPECT_NE(get_string(duplicate, "error")->find("duplicate key \"seed\""),
            std::string::npos)
      << *get_string(duplicate, "error");

  const JsonObject deadline = handle(JsonWriter{}
                                         .string("op", "submit")
                                         .string("configs", "x")
                                         .string("deadline_ms", "soon")
                                         .str());
  EXPECT_EQ(get_bool(deadline, "ok"), false);
}

TEST_F(ProtocolTest, DeadlineMsMustBeAnUnsignedInteger) {
  const JsonObject response =
      handle(JsonWriter{}
                 .string("op", "submit")
                 .string("configs", canonical_config_set_text(make_figure2()))
                 .string("deadline_ms", "soon")
                 .str());
  EXPECT_EQ(get_bool(response, "ok"), false);
  EXPECT_NE(get_string(response, "error")->find("deadline_ms"),
            std::string::npos);
}

// Integer fields are read from the raw token: a value past int, a fraction
// and one past every integer type are refused by name, not wrapped,
// truncated or cast out of range.
TEST_F(ProtocolTest, KrMustBeAnIntegerThatFitsInt) {
  const std::string configs = canonical_config_set_text(make_figure2());
  for (const std::string token : {"4294967302", "2.5", "1e300"}) {
    std::string line =
        JsonWriter{}.string("op", "submit").string("configs", configs).str();
    line.insert(line.size() - 1, ", \"k_r\": " + token);
    const JsonObject response = handle(line);
    EXPECT_EQ(get_bool(response, "ok"), false) << token;
    EXPECT_NE(get_string(response, "error").value_or("").find("k_r"),
              std::string::npos)
        << token;
  }
}

// Parameters no run can use are refused at admission, by name. A
// negative links_per_fake_router used to reach node addition and fail the
// job as Internal.
TEST_F(ProtocolTest, JobParamsOutsideTheirRangeAreRefusedByName) {
  const std::string configs = canonical_config_set_text(make_figure2());
  const std::pair<std::string, std::string> refused[] = {
      {"k_r", "0"},
      {"k_h", "0"},
      {"fake_routers", "-1"},
      {"links_per_fake_router", "-1"},
      {"noise_p", "-0.5"},
      {"noise_p", "1.5"}};
  for (const auto& [key, token] : refused) {
    std::string line =
        JsonWriter{}.string("op", "submit").string("configs", configs).str();
    if (key != "fake_routers") {
      line.insert(line.size() - 1, ", \"fake_routers\": 1");
    }
    line.insert(line.size() - 1, ", \"" + key + "\": " + token);
    const JsonObject response = handle(line);
    EXPECT_EQ(get_bool(response, "ok"), false) << key << " " << token;
    EXPECT_NE(get_string(response, "error").value_or("").find(key),
              std::string::npos)
        << key << " " << token;
  }
  // The bounds themselves are usable.
  const JsonObject bounds = handle(JsonWriter{}
                                       .string("op", "submit")
                                       .string("configs", configs)
                                       .number("k_r", 1)
                                       .number("k_h", 1)
                                       .real("noise_p", 1.0)
                                       .number("links_per_fake_router", 0)
                                       .str());
  EXPECT_EQ(get_bool(bounds, "ok"), true)
      << get_string(bounds, "error").value_or("");
}

// `incremental` is no longer a parameter.
TEST_F(ProtocolTest, RetiredIncrementalFieldIsIgnored) {
  expect_retired_field_ignored("\"incremental\": false");
}

// Algorithm 1 runs to its fixpoint, so `max_equivalence_iterations` is no
// longer a parameter: any value, in range or not, is ignored.
TEST_F(ProtocolTest, RetiredIterationBudgetFieldIsIgnored) {
  expect_retired_field_ignored("\"max_equivalence_iterations\": 1");
  expect_retired_field_ignored("\"max_equivalence_iterations\": -1");
}

// Every job runs ConfMask's own Step 2.1. Any other `strategy` is refused
// by name on both submit paths, since ignoring it would run another
// algorithm than the client asked for; "confmask" keys and runs like a
// request without the field.
TEST_F(ProtocolTest, StrategyOtherThanConfmaskIsRefused) {
  for (const std::string token : {"\"strawman1\"", "\"strawman2\"", "1"}) {
    std::string submit = submit_line(3);
    submit.insert(submit.size() - 1, ", \"strategy\": " + token);
    std::string resubmit = JsonWriter{}
                               .string("op", "resubmit")
                               .string("base", "0123456789abcdef")
                               .string("diff", "")
                               .str();
    resubmit.insert(resubmit.size() - 1, ", \"strategy\": " + token);
    for (const std::string& line : {submit, resubmit}) {
      const JsonObject response = handle(line);
      EXPECT_EQ(get_bool(response, "ok"), false) << line;
      EXPECT_NE(get_string(response, "error").value_or("").find("strategy"),
                std::string::npos)
          << line;
    }
  }
  expect_retired_field_ignored("\"strategy\": \"confmask\"");
}

TEST_F(ProtocolTest, PingReportsHealthAndVitals) {
  const JsonObject pong = handle("{\"op\": \"ping\"}");
  EXPECT_EQ(get_bool(pong, "ok"), true);
  EXPECT_FALSE(get_string(pong, "version")->empty());
  EXPECT_EQ(get_string(pong, "stamp"), cache_.stamp());
  EXPECT_TRUE(get_u64(pong, "uptime_ms").has_value());
  EXPECT_EQ(get_u64(pong, "queued"), 0u);
  EXPECT_EQ(get_u64(pong, "running"), 0u);
  EXPECT_EQ(get_u64(pong, "cache_entries"), 0u);
  EXPECT_EQ(get_u64(pong, "cache_budget_bytes"), 0u);  // unbounded here
  // No journal attached to this handler: the probe says so.
  EXPECT_EQ(get_bool(pong, "journal"), false);
  EXPECT_EQ(pong.count("journal_appends"), 0u);
}

TEST(Protocol, QueueFullSubmitRejectionCarriesRetryAfterMs) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "confmask_proto_retry_after";
  fs::remove_all(dir);
  ArtifactCache cache(dir);
  JobScheduler::Options options;
  options.max_pending = 0;
  JobScheduler scheduler(&cache, options);
  ProtocolHandler handler(&scheduler, &cache);
  const auto response = parse_json_line(handler.handle(
      JsonWriter{}
          .string("op", "submit")
          .string("configs", canonical_config_set_text(make_figure2()))
          .str(),
      nullptr));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(get_bool(*response, "ok"), false);
  EXPECT_NE(get_string(*response, "error")->find("queue full"),
            std::string::npos);
  const auto hint = get_u64(*response, "retry_after_ms");
  ASSERT_TRUE(hint.has_value());  // transient: the client should retry
  EXPECT_GT(*hint, 0u);
  scheduler.shutdown(JobScheduler::ShutdownMode::kCancelPending);
  fs::remove_all(dir);
}

TEST(Protocol, PingWithJournalAttachedReportsJournalVitals) {
  const fs::path dir = fs::path(testing::TempDir()) / "confmask_proto_jping";
  fs::remove_all(dir);
  JobJournal journal(dir / "jobs.wal");
  ArtifactCache cache(dir / "cache");
  JobScheduler::Options options;
  options.journal = &journal;
  JobScheduler scheduler(&cache, options);
  ProtocolHandler handler(&scheduler, &cache, &journal);

  const auto submitted = parse_json_line(handler.handle(
      JsonWriter{}
          .string("op", "submit")
          .string("configs", canonical_config_set_text(make_figure2()))
          .number("k_r", 2)
          .number("k_h", 2)
          .number_u64("deadline_ms", 60'000)
          .str(),
      nullptr));
  ASSERT_TRUE(submitted.has_value());
  ASSERT_EQ(get_bool(*submitted, "ok"), true)
      << get_string(*submitted, "error").value_or("");
  ASSERT_TRUE(scheduler.wait(*get_u64(*submitted, "job")));

  const auto pong =
      parse_json_line(handler.handle("{\"op\": \"ping\"}", nullptr));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(get_bool(*pong, "journal"), true);
  // The accepted submit and its state transitions were all journaled.
  ASSERT_TRUE(get_u64(*pong, "journal_appends").has_value());
  EXPECT_GE(*get_u64(*pong, "journal_appends"), 2u);
  EXPECT_EQ(get_u64(*pong, "journal_append_failures"), 0u);
  scheduler.shutdown(JobScheduler::ShutdownMode::kDrain);
  fs::remove_all(dir);
}

TEST_F(ProtocolTest, ShutdownRequestSetsCommand) {
  ShutdownCommand shutdown;
  const JsonObject response = handle(
      "{\"op\": \"shutdown\", \"mode\": \"cancel\"}", &shutdown);
  EXPECT_EQ(get_bool(response, "ok"), true);
  EXPECT_TRUE(shutdown.requested);
  EXPECT_EQ(shutdown.mode, JobScheduler::ShutdownMode::kCancelPending);
}

TEST_F(ProtocolTest, SubscribeAcksKnownJobsAndRefusesWithoutStreaming) {
  const JsonObject submitted = handle(submit_line(11));
  const auto job = get_u64(submitted, "job");
  ASSERT_TRUE(job.has_value());

  SubscribeCommand subscribe;
  const auto ack = parse_json_line(handler_.handle(
      JsonWriter{}.string("op", "subscribe").number_u64("job", *job).str(),
      nullptr, &subscribe));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(get_bool(*ack, "ok"), true);
  EXPECT_EQ(get_string(*ack, "op"), "subscribe");
  EXPECT_EQ(get_u64(*ack, "job"), *job);
  EXPECT_TRUE(get_string(*ack, "state").has_value());
  EXPECT_TRUE(subscribe.requested);
  EXPECT_EQ(subscribe.job, *job);

  // Unknown job: loud error, no subscription recorded.
  SubscribeCommand unknown;
  const auto bad = parse_json_line(handler_.handle(
      "{\"op\": \"subscribe\", \"job\": 999}", nullptr, &unknown));
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(get_bool(*bad, "ok"), false);
  EXPECT_FALSE(unknown.requested);

  // A transport that cannot stream (no SubscribeCommand out-param) must
  // refuse rather than ack a stream it will never deliver.
  const JsonObject refused = handle(
      JsonWriter{}.string("op", "subscribe").number_u64("job", *job).str());
  EXPECT_EQ(get_bool(refused, "ok"), false);

  scheduler_.wait(*job);
}

TEST(DaemonE2E, RetryBudgetExhaustionIsTypedAndDeadlineCapped) {
  const std::string socket_path =
      "/tmp/confmaskd_retry_" + std::to_string(::getpid()) + ".sock";
  const fs::path cache_dir =
      fs::path(testing::TempDir()) / "confmask_retry_cache";
  fs::remove_all(cache_dir);

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  options.max_pending = 0;  // every submit is load-shed with a retry hint
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });
  const std::string stats_line = JsonWriter{}.string("op", "stats").str();
  std::optional<std::string> up;
  for (int i = 0; i < 250 && !up; ++i) {
    up = client_roundtrip(socket_path, stats_line);
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(up.has_value()) << "daemon never came up";

  const std::string configs = canonical_config_set_text(make_figure2());
  RetryConfig config;
  config.max_attempts = 3;
  config.base_ms = 1;
  config.max_delay_ms = 5;

  // Attempt budget: the client retries through the schedule, then stops
  // with a TYPED budget failure that still carries the final response and
  // the server's last hint.
  TransportError error;
  const auto response = client_submit_with_retry(
      socket_path,
      JsonWriter{}.string("op", "submit").string("configs", configs).str(),
      config, &error);
  ASSERT_TRUE(response.has_value());  // the rejection line, not a timeout
  const auto parsed = parse_json_line(*response);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(get_bool(*parsed, "ok"), false);
  EXPECT_EQ(error.failure, TransportFailure::kRetryBudgetExhausted);
  EXPECT_GT(error.retry_after_ms, 0u);

  // Deadline cap: with a 1ms job deadline, sleeping even one backoff
  // delay would admit a job the server must immediately expire, so the
  // client gives up before its attempt budget.
  const auto start = std::chrono::steady_clock::now();
  TransportError capped;
  const auto capped_response = client_submit_with_retry(
      socket_path,
      JsonWriter{}
          .string("op", "submit")
          .string("configs", configs)
          .number_u64("deadline_ms", 1)
          .str(),
      config, &capped);
  ASSERT_TRUE(capped_response.has_value());
  EXPECT_EQ(capped.failure, TransportFailure::kRetryBudgetExhausted);
  // No full backoff schedule was slept: the server hint floor is 100ms
  // per retry, so an early stop finishes well under one full schedule.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(150));

  const auto bye = client_roundtrip(
      socket_path, JsonWriter{}.string("op", "shutdown").str());
  ASSERT_TRUE(bye.has_value());
  server.join();
  fs::remove_all(cache_dir);
}

TEST(DaemonE2E, SubmitTwiceOverUnixSocketSecondIsCacheHit) {
  // Keep the socket path short: sun_path caps out around 108 bytes.
  const std::string socket_path =
      "/tmp/confmaskd_test_" + std::to_string(::getpid()) + ".sock";
  const fs::path cache_dir =
      fs::path(testing::TempDir()) / "confmask_daemon_cache";
  fs::remove_all(cache_dir);

  Daemon::Options options;
  options.socket_path = socket_path;
  options.cache_dir = cache_dir;
  options.max_concurrent_jobs = 2;
  Daemon daemon(options);
  std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });

  // Wait for the daemon to come up (bind + listen happen inside run()).
  const std::string stats_line = JsonWriter{}.string("op", "stats").str();
  std::optional<std::string> up;
  for (int i = 0; i < 250 && !up; ++i) {
    up = client_roundtrip(socket_path, stats_line);
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(up.has_value()) << "daemon never came up";

  const std::string submit = JsonWriter{}
                                 .string("op", "submit")
                                 .string("configs",
                                         canonical_config_set_text(
                                             make_figure2()))
                                 .number("k_r", 2)
                                 .number("k_h", 2)
                                 .number_u64("seed", 11)
                                 .str();
  std::string first_configs;
  for (const bool expect_hit : {false, true}) {
    const auto submitted = client_roundtrip(socket_path, submit);
    ASSERT_TRUE(submitted.has_value());
    const auto submit_response = parse_json_line(*submitted);
    ASSERT_TRUE(submit_response.has_value());
    ASSERT_EQ(get_bool(*submit_response, "ok"), true) << *submitted;
    const auto job = get_u64(*submit_response, "job");
    ASSERT_TRUE(job.has_value());

    // Poll status until terminal.
    const std::string status_line = JsonWriter{}
                                        .string("op", "status")
                                        .number_u64("job", *job)
                                        .str();
    std::optional<std::string> state;
    for (int i = 0; i < 1500; ++i) {
      const auto status = client_roundtrip(socket_path, status_line);
      ASSERT_TRUE(status.has_value());
      const auto parsed = parse_json_line(*status);
      ASSERT_TRUE(parsed.has_value());
      state = get_string(*parsed, "state");
      if (state == "done" || state == "failed") {
        EXPECT_EQ(get_bool(*parsed, "cache_hit"), expect_hit) << *status;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(state, "done");

    const auto result = client_roundtrip(
        socket_path, JsonWriter{}
                         .string("op", "result")
                         .number_u64("job", *job)
                         .str());
    ASSERT_TRUE(result.has_value());
    const auto result_response = parse_json_line(*result);
    ASSERT_TRUE(result_response.has_value());
    const auto configs = get_string(*result_response, "configs");
    ASSERT_TRUE(configs.has_value());
    if (expect_hit) {
      // The acceptance bar: cached replay is byte-identical.
      EXPECT_EQ(*configs, first_configs);
    } else {
      first_configs = *configs;
      EXPECT_FALSE(first_configs.empty());
    }
  }

  // Stats prove the second run came from the cache.
  const auto stats = client_roundtrip(socket_path, stats_line);
  ASSERT_TRUE(stats.has_value());
  const auto stats_response = parse_json_line(*stats);
  ASSERT_TRUE(stats_response.has_value());
  EXPECT_EQ(get_u64(*stats_response, "cache_hits"), 1u);
  EXPECT_EQ(get_u64(*stats_response, "cache_stores"), 1u);
  EXPECT_EQ(get_u64(*stats_response, "completed"), 2u);

  // Clean shutdown over the protocol; run() returns and removes the socket.
  const auto bye = client_roundtrip(
      socket_path, JsonWriter{}.string("op", "shutdown").str());
  ASSERT_TRUE(bye.has_value());
  server.join();
  EXPECT_FALSE(fs::exists(socket_path));
  fs::remove_all(cache_dir);
}

}  // namespace
}  // namespace confmask
