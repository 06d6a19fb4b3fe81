// Byte identity of the pipeline's output, pinned by digest.
//
// Performance work on the pipeline must not move a byte of what it emits:
// the anonymized bundle (canonical text) and the diagnostics JSON. This
// table holds the fnv1a64 digests of both for the eight evaluation
// networks and the four scale families at 316 routers (seed 1, default
// options), for node addition on two networks, and for one patched
// watch-mode chain, whose every step must also equal its cold run. The
// JSON documents a traced run writes are pinned too: metrics.json's
// deterministic half, the NDJSON trace of a tagged run with its durations
// masked, and diagnostics with every section filled. A change that alters
// the bytes on purpose updates the table in the same change and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/config/emit.hpp"
#include "src/core/confmask.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/testing/differential.hpp"
#include "src/util/hash.hpp"
#include "tests/json_checker.hpp"

namespace confmask {
namespace {

struct Digests {
  std::uint64_t bundle = 0;
  std::uint64_t diagnostics = 0;
};

Digests digests_of(const GuardedPipelineResult& run) {
  return {fnv1a64(run.ok() ? canonical_config_set_text(run.result->anonymized)
                           : std::string{}),
          fnv1a64(diagnostics_to_json(run.diagnostics))};
}

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

void expect_digests(const std::string& name, const GuardedPipelineResult& run,
                    const Digests& expected) {
  const Digests actual = digests_of(run);
  EXPECT_EQ(hex(actual.bundle), hex(expected.bundle)) << name << " bundle";
  EXPECT_EQ(hex(actual.diagnostics), hex(expected.diagnostics))
      << name << " diagnostics";
}

TEST(ByteIdentity, EvaluationNetworks) {
  const std::vector<Digests> expected = {
      {0x0a31562561d5e933, 0x5e88bb4a6b68c5ea},  // A
      {0xbb4a9b427c69db30, 0x5e88bb4a6b68c5ea},  // B
      {0x9d1ad84c10e5be36, 0x5e88bb4a6b68c5ea},  // C
      {0x3275e0e2f1f615c7, 0x5e88bb4a6b68c5ea},  // D
      {0x71134d6ca9654fe3, 0x5e88bb4a6b68c5ea},  // E
      {0x8712c0efbd4440f0, 0x5e88bb4a6b68c5ea},  // F
      {0xa4a66da70c98d040, 0x5e88bb4a6b68c5ea},  // G
      {0x5c13d959e13beb04, 0x5e88bb4a6b68c5ea},  // H
  };
  const auto networks = evaluation_networks();
  ASSERT_EQ(networks.size(), expected.size());
  for (std::size_t i = 0; i < networks.size(); ++i) {
    ConfMaskOptions options;
    options.seed = 1;
    expect_digests(networks[i].id,
                   run_pipeline_guarded(networks[i].configs, options),
                   expected[i]);
  }
}

// The §9 extension: three fake routers before Step 1, on a BGP+OSPF network
// and a RIP one.
TEST(ByteIdentity, NodeAddition) {
  ConfMaskOptions options;
  options.seed = 1;
  options.fake_routers = 3;
  expect_digests("A fake routers",
                 run_pipeline_guarded(evaluation_networks().front().configs,
                                      options),
                 {0xf0e2c1ac018f81c1, 0x5e88bb4a6b68c5ea});
  expect_digests(
      "waxman-rip 60 fake routers",
      run_pipeline_guarded(make_scale_network(ScaleFamily::kWaxmanRip, 60, 1),
                           options),
      {0xbac48768afd0bb71, 0x5e88bb4a6b68c5ea});
}

// Default-cost fake links undercut Bics' routes: the run reseeds twice and
// fails closed, so the diagnostics carry the ladder and the divergence.
TEST(ByteIdentity, FailClosedVerdict) {
  ConfMaskOptions options;
  options.seed = 1;
  options.cost_policy = FakeLinkCostPolicy::kDefault;
  const GuardedPipelineResult run = run_pipeline_guarded(make_bics(), options);
  EXPECT_FALSE(run.ok());
  expect_digests("D default cost", run,
                 {0xcbf29ce484222325, 0xe7a02bb4faef58e4});
}

TEST(ByteIdentity, ScaleFamiliesAt316Routers) {
  const ScaleFamily families[] = {
      ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
      ScaleFamily::kPreferentialAttachment};
  const Digests expected[] = {
      {0xb546c5bfe5329cb0, 0x5e88bb4a6b68c5ea},  // waxman-ospf
      {0x450b0eb1d9ec1f37, 0x5e88bb4a6b68c5ea},  // waxman-rip
      {0x014445b327c47316, 0x5e88bb4a6b68c5ea},  // multi-as
      {0x7bcdfce9a07bf137, 0x5e88bb4a6b68c5ea},  // pref-attach
  };
  for (std::size_t i = 0; i < std::size(families); ++i) {
    ConfMaskOptions options;
    options.seed = 1;
    expect_digests(scale_family_name(families[i]),
                   run_pipeline_guarded(
                       make_scale_network(families[i], 316, 1), options),
                   expected[i]);
  }
}

/// Denies `denied` on `router`'s first interface through a new list.
void bind_filter(ConfigSet& configs, const std::string& router,
                 const std::string& list_name, const Ipv4Prefix& denied) {
  RouterConfig* config = configs.find_router(router);
  ASSERT_NE(config, nullptr);
  PrefixList list;
  list.name = list_name;
  list.add_deny(denied);
  list.add_permit_all();
  config->prefix_lists.push_back(std::move(list));
  config->ospf->distribute_lists.push_back(
      DistributeList{list_name, config->interfaces.front().name});
}

// USCarrier at k_H = 2 under three filter edits: one denying a real host's
// prefix, two an unrelated prefix. Every step runs patched against the
// previous step's context and must equal its cold run.
TEST(ByteIdentity, PatchedWatchChain) {
  const Digests expected[] = {
      {0xdefa5c051ce01735, 0x5e88bb4a6b68c5ea},  // base
      {0xe009b388af796a4c, 0x5e88bb4a6b68c5ea},  // deny a real host
      {0x507b8dc1f0cfc963, 0x5e88bb4a6b68c5ea},  // deny an unrelated prefix
      {0xfc8cfec4347e914b, 0x5e88bb4a6b68c5ea},  // another unrelated deny
  };
  ConfMaskOptions options;
  options.seed = 5;
  options.k_h = 2;
  ConfigSet current = canonicalize(make_uscarrier());
  PatchCapture capture;
  const GuardedPipelineResult base = run_pipeline_guarded(
      current, options, {}, nullptr, nullptr, &capture);
  expect_digests("base", base, expected[0]);
  std::shared_ptr<const PatchContext> context = finish_capture(capture);
  const Ipv4Prefix unrelated{Ipv4Address{10, 200, 200, 0}, 24};
  const struct {
    const char* router;
    Ipv4Prefix denied;
  } edits[] = {
      {"usc4", current.hosts.front().prefix()},
      {"usc17", unrelated},
      {"usc30", unrelated},
  };
  for (std::size_t step = 0; step < std::size(edits); ++step) {
    ConfigSet edited = current;
    bind_filter(edited, edits[step].router, "EDIT" + std::to_string(step),
                edits[step].denied);
    edited = canonicalize(std::move(edited));
    PatchCapture next;
    const GuardedPipelineResult patched = run_pipeline_guarded(
        edited, options, {}, nullptr, context.get(), &next);
    ASSERT_TRUE(patched.ok()) << "step " << step;
    EXPECT_GT(patched.result->stats.patched_stages, 0) << "step " << step;
    const std::string name = "edit " + std::to_string(step);
    expect_digests(name, patched, expected[step + 1]);
    const Digests cold = digests_of(run_pipeline_guarded(edited, options));
    EXPECT_EQ(hex(cold.bundle), hex(expected[step + 1].bundle)) << name;
    context = finish_capture(next);
    current = std::move(edited);
  }
}

// figure2 at k_R 2 and seed 7, the traced run of test_observability.
ConfMaskOptions figure2_traced_options() {
  ConfMaskOptions options;
  options.k_r = 2;
  options.k_h = 2;
  options.noise_p = 0.4;
  options.seed = 7;
  return options;
}

std::string traced_metrics(const ConfigSet& configs,
                           const ConfMaskOptions& options,
                           bool include_timings) {
  PipelineTrace trace;
  EXPECT_TRUE(run_pipeline_guarded(configs, options).ok());
  return trace.metrics_json(include_timings);
}

TEST(ByteIdentity, TracedRunMetrics) {
  EXPECT_EQ(hex(fnv1a64(traced_metrics(make_figure2(),
                                       figure2_traced_options(), false))),
            "0xedc3b76561b934fa");

  // multi-as at 316 routers: the network, seed and options of one
  // bench_scale pipeline point.
  const std::uint64_t seed = 0x5CA1E + 316;
  ConfigSet multi_as = make_scale_network(ScaleFamily::kMultiAs, 316, seed);
  decorate_scale_network(multi_as, seed);
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 0xC0DE;
  EXPECT_EQ(hex(fnv1a64(traced_metrics(multi_as, options, false))),
            "0x204a90f611c5655a");
}

TEST(ByteIdentity, MetricsWithTimingsParseAndKeepTheirKeyOrder) {
  const std::string json =
      traced_metrics(make_figure2(), figure2_traced_options(), true);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  std::size_t previous = 0;
  for (const char* key : {"\"schema\"", "\"deterministic\": false",
                          "\"spans\"", "\"totals\"", "\"histograms\"",
                          "\"timings\"", "\"pool\": {\"workers\": "}) {
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, previous) << key;
    previous = at;
  }
  EXPECT_NE(json.find("\"per_worker\": [", previous), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 5), "]}\n}\n");
}

// Every line of a tagged trace, "dur_ns" values zeroed: the only field that
// differs between two runs.
TEST(ByteIdentity, TaggedTraceLines) {
  std::ostringstream sink;
  {
    PipelineTrace::Options trace_options;
    trace_options.trace_sink = &sink;
    trace_options.tag = "t/job-1";
    PipelineTrace trace(trace_options);
    EXPECT_TRUE(
        run_pipeline_guarded(make_figure2(), figure2_traced_options()).ok());
  }
  std::string masked = sink.str();
  const std::string field = "\"dur_ns\": ";
  for (std::size_t at = masked.find(field); at != std::string::npos;
       at = masked.find(field, at)) {
    at += field.size();
    std::size_t digits = at;
    while (digits < masked.size() && masked[digits] >= '0' &&
           masked[digits] <= '9') {
      ++digits;
    }
    masked.replace(at, digits - at, "0");
  }
  const std::string first =
      "{\"job\": \"t/job-1\", \"schema\": \"confmask.trace/1\", "
      "\"type\": \"trace_begin\", \"seq\": 0}\n";
  EXPECT_EQ(masked.substr(0, first.size()), first);
  EXPECT_EQ(hex(fnv1a64(masked)), "0x0594e108d62366e3");
}

PipelineDiagnostics hand_built_diagnostics(bool ok) {
  PipelineDiagnostics diag;
  diag.ok = ok;
  diag.attempts = ok ? 1 : 3;
  if (ok) return diag;
  diag.stage = PipelineStage::kVerification;
  diag.category = ErrorCategory::kNonConvergent;
  diag.message = "data planes differ on 1 flow \"h1\"\n-> h2";
  diag.fallbacks = {
      {FallbackKind::kReseed, 1, "seed 1 -> 2"},
      {FallbackKind::kRelaxKr, 2, "k_r 6 -> 5\t(floor 2)"},
  };
  diag.divergence = {{"h1", "h2", "r3", {"r4", "r5"}, {"r6"}}};
  SpanMetrics preprocess;
  preprocess.path = "preprocess";
  preprocess.count = 3;
  preprocess.total_ns = 1500;
  preprocess.counters = {{"flows", 12}, {"routers", 4}};
  SpanMetrics iteration;
  iteration.path = "route_equivalence/iteration";
  iteration.count = 2;
  iteration.total_ns = 700;
  iteration.counters = {{"filters_added", 5}};
  diag.span_metrics = {preprocess, iteration};
  return diag;
}

TEST(ByteIdentity, DiagnosticsText) {
  EXPECT_EQ(diagnostics_to_json(hand_built_diagnostics(false)), R"json({
  "ok": false,
  "stage": "Verification",
  "category": "NonConvergent",
  "exit_code": 12,
  "message": "data planes differ on 1 flow \"h1\"\n-> h2",
  "attempts": 3,
  "fallbacks": [
    {"kind": "Reseed", "attempt": 1, "detail": "seed 1 -> 2"},
    {"kind": "RelaxKr", "attempt": 2, "detail": "k_r 6 -> 5\t(floor 2)"}
  ],
  "divergence": [
    {"source": "h1", "destination": "h2", "router": "r3", "expected_next_hops": ["r4", "r5"], "actual_next_hops": ["r6"]}
  ],
  "phases": [
    {"path": "preprocess", "count": 3, "total_ns": 1500, "counters": {"flows": 12, "routers": 4}},
    {"path": "route_equivalence/iteration", "count": 2, "total_ns": 700, "counters": {"filters_added": 5}}
  ]
}
)json");
  EXPECT_EQ(diagnostics_to_json(hand_built_diagnostics(true)), R"json({
  "ok": true,
  "stage": null,
  "category": null,
  "exit_code": 0,
  "message": "",
  "attempts": 1,
  "fallbacks": [],
  "divergence": [],
  "phases": []
}
)json");
}

}  // namespace
}  // namespace confmask
