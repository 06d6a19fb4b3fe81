// Tests for the observability layer (DESIGN.md §9): obs primitives,
// PipelineTrace span nesting/aggregation, NDJSON stream validity, and the
// determinism contract — instrumentation counters identical across worker
// counts and byte-stable across repeated same-seed runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/testing/differential.hpp"
#include "src/util/json_writer.hpp"
#include "src/util/observability.hpp"
#include "src/util/thread_pool.hpp"
#include "tests/json_checker.hpp"

namespace confmask {
namespace {

// ---------------------------------------------------------------------------
// obs primitives

TEST(Observability, HistogramBucketsByBitWidth) {
  obs::Histogram histogram;
  histogram.record(0);   // bit_width 0
  histogram.record(1);   // bit_width 1
  histogram.record(2);   // bit_width 2
  histogram.record(3);   // bit_width 2
  histogram.record(8);   // bit_width 4
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 14u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 8u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 0u);
  EXPECT_EQ(snap.buckets[4], 1u);
}

TEST(Observability, JsonEscapeHandlesControlCharacters) {
  // `text` as the writer quotes it, cut from a one-member line, and the
  // escaped bytes between its quotes.
  const auto quoted = [](std::string_view text) {
    const std::string line = JsonWriter{}.string("v", text).str();
    return line.substr(6, line.size() - 7);
  };
  const auto escaped = [&quoted](std::string_view text) {
    const std::string value = quoted(text);
    return value.substr(1, value.size() - 2);
  };
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escaped("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(escaped(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(quoted("a\"b\n"), "\"a\\\"b\\n\"");
  EXPECT_EQ(quoted(""), "\"\"");
}

// ---------------------------------------------------------------------------
// Span lifecycle and aggregation

TEST(PipelineTraceTest, InactiveByDefault) {
  EXPECT_EQ(PipelineTrace::active(), nullptr);
  // All statics are harmless no-ops without an installed trace.
  auto span = PipelineTrace::begin("orphan");
  EXPECT_FALSE(static_cast<bool>(span));
  span.add("ignored");
  span.end();
  PipelineTrace::count("ignored");
  PipelineTrace::record("ignored", 42);
}

TEST(PipelineTraceTest, SpansNestIntoPaths) {
  PipelineTrace trace;
  ASSERT_EQ(PipelineTrace::active(), &trace);
  {
    auto outer = PipelineTrace::begin("outer");
    outer.add("widgets", 2);
    for (int i = 0; i < 3; ++i) {
      auto inner = PipelineTrace::begin("inner");
      inner.add("widgets", 1);
    }
  }
  const auto metrics = trace.metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].path, "outer");
  EXPECT_EQ(metrics[0].count, 1u);
  EXPECT_EQ(metrics[0].counters.at("widgets"), 2u);
  EXPECT_EQ(metrics[1].path, "outer/inner");
  EXPECT_EQ(metrics[1].count, 3u);
  EXPECT_EQ(metrics[1].counters.at("widgets"), 3u);
}

TEST(PipelineTraceTest, CountAttachesToInnermostOpenSpan) {
  PipelineTrace trace;
  {
    auto outer = PipelineTrace::begin("outer");
    auto inner = PipelineTrace::begin("inner");
    PipelineTrace::count("hits", 5);
    inner.end();
    PipelineTrace::count("hits", 1);  // now lands on "outer"
  }
  const auto metrics = trace.metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].counters.at("hits"), 1u);
  EXPECT_EQ(metrics[1].counters.at("hits"), 5u);
}

TEST(PipelineTraceTest, NestedTracesOutermostWins) {
  PipelineTrace outer_trace;
  {
    PipelineTrace inner_trace;
    EXPECT_EQ(PipelineTrace::active(), &outer_trace);
    auto span = PipelineTrace::begin("work");
    span.end();
    EXPECT_TRUE(inner_trace.metrics().empty());
  }
  // Destroying the inert inner trace must not uninstall the outer one.
  EXPECT_EQ(PipelineTrace::active(), &outer_trace);
  EXPECT_EQ(outer_trace.metrics().size(), 1u);
}

TEST(PipelineTraceTest, MoveTransfersSpanOwnership) {
  PipelineTrace trace;
  {
    auto span = PipelineTrace::begin("moved");
    auto stolen = std::move(span);
    EXPECT_FALSE(static_cast<bool>(span));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(stolen));
    span.end();  // no-op on the moved-from handle
  }
  ASSERT_EQ(trace.metrics().size(), 1u);
  EXPECT_EQ(trace.metrics()[0].count, 1u);
}

TEST(PipelineTraceTest, HistogramsRecordViaStatic) {
  PipelineTrace trace;
  PipelineTrace::record("sizes", 3);
  PipelineTrace::record("sizes", 5);
  const std::string json = trace.metrics_json(false);
  EXPECT_NE(json.find("\"name\": \"sizes\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 8"), std::string::npos);
}

// ---------------------------------------------------------------------------
// NDJSON stream

TEST(PipelineTraceTest, NdjsonStreamIsValidAndOrdered) {
  std::ostringstream sink;
  {
    PipelineTrace::Options options;
    options.trace_sink = &sink;
    PipelineTrace trace(options);
    auto outer = trace.span("phase");
    outer.add("things", 7);
    auto inner = trace.span("step");
    inner.end();
    trace.event("checkpoint", "detail \"quoted\"");
  }
  std::istringstream lines(sink.str());
  std::string line;
  std::vector<std::string> seen;
  std::uint64_t expected_seq = 0;
  while (std::getline(lines, line)) {
    JsonChecker checker(line);
    EXPECT_TRUE(checker.valid()) << "invalid JSON line: " << line;
    EXPECT_NE(line.find("\"seq\": " + std::to_string(expected_seq)),
              std::string::npos)
        << "line out of sequence: " << line;
    ++expected_seq;
    seen.push_back(line);
  }
  ASSERT_EQ(seen.size(), 7u);  // begin, 2x span_begin, 2x span_end,
                               // event, trace_end
  EXPECT_NE(seen.front().find("\"schema\": \"confmask.trace/1\""),
            std::string::npos);
  EXPECT_NE(seen.front().find("\"type\": \"trace_begin\""), std::string::npos);
  // Inner span closes before outer; dur_ns and counters ride the end lines.
  EXPECT_NE(seen[3].find("\"path\": \"phase/step\""), std::string::npos);
  EXPECT_NE(seen[3].find("\"dur_ns\": "), std::string::npos);
  EXPECT_NE(seen[4].find("\"type\": \"event\""), std::string::npos);
  EXPECT_NE(seen[5].find("\"counters\": {\"things\": 7}"), std::string::npos);
  EXPECT_NE(seen.back().find("\"type\": \"trace_end\""), std::string::npos);
}

TEST(PipelineTraceTest, MetricsJsonIsValidJson) {
  PipelineTrace trace;
  {
    auto span = trace.span("phase");
    span.add("units", 3);
    PipelineTrace::record("sizes", 4);
  }
  for (const bool timings : {false, true}) {
    const std::string json = trace.metrics_json(timings);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
  }
  EXPECT_NE(trace.metrics_json(true).find("\"pool\""), std::string::npos);
  EXPECT_NE(trace.metrics_json(true).find("\"timings\""), std::string::npos);
  EXPECT_EQ(trace.metrics_json(false).find("\"pool\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism contract on the real pipeline

ConfMaskOptions traced_options() {
  ConfMaskOptions options;
  options.k_r = 2;
  options.k_h = 2;
  options.noise_p = 0.4;
  options.seed = 7;
  return options;
}

std::string run_traced(const ConfigSet& configs, unsigned workers,
                       const ConfMaskOptions& options = traced_options()) {
  ThreadPool::configure(workers);
  PipelineTrace trace;
  const auto guarded = run_pipeline_guarded(configs, options);
  EXPECT_TRUE(guarded.ok());
  EXPECT_FALSE(guarded.diagnostics.span_metrics.empty());
  // Deterministic content only: counters, histograms — no durations.
  return trace.metrics_json(/*include_timings=*/false);
}

TEST(PipelineTraceTest, MetricsByteStableAcrossWorkerCounts) {
  const ConfigSet network = make_figure2();
  const std::string serial = run_traced(network, 1);
  const std::string parallel = run_traced(network, 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"deterministic\": true"), std::string::npos);
  EXPECT_NE(serial.find("\"path\": \"preprocess\""), std::string::npos);
  EXPECT_NE(serial.find("\"path\": \"verification\""), std::string::npos);

  // The BGP scale family at 316 routers: the network, seed and options of
  // one bench_scale pipeline point, whose work CI compares exactly with
  // bench/BENCH_scale.work.json at the runner's worker count.
  const std::uint64_t seed = 0x5CA1E + 316;
  ConfigSet multi_as = make_scale_network(ScaleFamily::kMultiAs, 316, seed);
  decorate_scale_network(multi_as, seed);
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 0xC0DE;
  EXPECT_EQ(run_traced(multi_as, 1, options),
            run_traced(multi_as, 4, options));
  ThreadPool::configure(0);  // restore default for later tests
}

TEST(PipelineTraceTest, MetricsByteStableAcrossRepeatedRuns) {
  const ConfigSet network = make_figure2();
  const std::string first = run_traced(network, 2);
  const std::string second = run_traced(network, 2);
  EXPECT_EQ(first, second);
  ThreadPool::configure(0);
}

TEST(PipelineTraceTest, GuardedRunnerPopulatesSpanMetrics) {
  PipelineTrace trace;
  ConfMaskOptions options;
  options.k_r = 2;
  options.k_h = 2;
  options.seed = 3;
  const auto guarded = run_pipeline_guarded(make_figure2(), options);
  ASSERT_TRUE(guarded.ok());
  const auto& spans = guarded.diagnostics.span_metrics;
  ASSERT_FALSE(spans.empty());
  bool saw_verification = false;
  for (const auto& span : spans) {
    if (span.path == "verification") {
      saw_verification = true;
      EXPECT_EQ(span.counters.at("equivalent"), 1u);
    }
  }
  EXPECT_TRUE(saw_verification);
}

}  // namespace
}  // namespace confmask
