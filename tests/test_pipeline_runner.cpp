// The guarded pipeline runner: clean-run behavior, one preprocess shared
// by a retried run's attempts, the error taxonomy, DataPlane::diff
// divergence reporting, and cancel tokens and their deadlines.
#include "src/core/pipeline_runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/confmask.hpp"
#include "src/core/errors.hpp"
#include "src/graph/k_degree_anonymize.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/dataplane.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/prefix_allocator.hpp"

#if defined(CONFMASK_FAULT_INJECTION)
#include "tests/fault_injection.hpp"
#endif

namespace confmask {
namespace {

ConfMaskOptions figure2_options() {
  ConfMaskOptions options;
  // k_r = 4 forces all four routers of Fig 2 into one degree class, so
  // fake links (and therefore equivalence-restoring filters) are
  // guaranteed to be needed.
  options.k_r = 4;
  options.k_h = 2;
  options.seed = 7;
  return options;
}

TEST(PipelineRunner, CleanRunSucceedsFirstAttempt) {
  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options());
  ASSERT_TRUE(guarded.ok());
  EXPECT_TRUE(guarded.diagnostics.ok);
  EXPECT_EQ(guarded.diagnostics.attempts, 1);
  EXPECT_TRUE(guarded.diagnostics.fallbacks.empty());
  EXPECT_TRUE(guarded.result->functionally_equivalent);
  EXPECT_TRUE(guarded.result->equivalence_converged);
  EXPECT_FALSE(guarded.result->anonymized.routers.empty());
}

#if defined(CONFMASK_FAULT_INJECTION)
// A retried run shares one preprocess across its attempts: the originals
// are simulated once per guarded run, and the output equals a single shot
// at the options the ladder settled on.
TEST(PipelineRunner, AttemptsShareOnePreprocess) {
  const ConfigSet original = make_figure2();
  const auto options = figure2_options();

  std::uint64_t guarded_runs = 0;
  GuardedPipelineResult guarded;
  {
    // The first attempt fails its gate, so the second runs reseeded.
    const ScopedFault diverge(faults::kVerificationDiverge, 1);
    const std::uint64_t before = Simulation::runs_on_this_thread();
    guarded = run_pipeline_guarded(original, options);
    guarded_runs = Simulation::runs_on_this_thread() - before;
  }
  ASSERT_TRUE(guarded.ok());
  ASSERT_EQ(guarded.diagnostics.attempts, 2);
  ASSERT_EQ(guarded.diagnostics.fallbacks.size(), 1u);
  EXPECT_EQ(guarded.diagnostics.fallbacks.front().kind, FallbackKind::kReseed);

  const std::uint64_t single_before = Simulation::runs_on_this_thread();
  (void)run_confmask(original, options);
  const auto single = run_confmask(original, guarded.effective_options);
  const std::uint64_t single_runs =
      Simulation::runs_on_this_thread() - single_before;

  EXPECT_EQ(guarded_runs + 1, single_runs);
  EXPECT_EQ(canonical_config_set_text(guarded.result->anonymized),
            canonical_config_set_text(single.anonymized));
}
#endif

TEST(ErrorTaxonomy, ExitCodesAreDistinctAndStable) {
  EXPECT_EQ(exit_code_for(ErrorCategory::kInfeasibleParams), 10);
  EXPECT_EQ(exit_code_for(ErrorCategory::kResourceExhausted), 11);
  EXPECT_EQ(exit_code_for(ErrorCategory::kNonConvergent), 12);
  EXPECT_EQ(exit_code_for(ErrorCategory::kParseError), 13);
  EXPECT_EQ(exit_code_for(ErrorCategory::kInternal), 14);
}

TEST(ErrorTaxonomy, RetryabilityDefaults) {
  EXPECT_TRUE(default_retryable(ErrorCategory::kInfeasibleParams));
  EXPECT_TRUE(default_retryable(ErrorCategory::kResourceExhausted));
  EXPECT_TRUE(default_retryable(ErrorCategory::kNonConvergent));
  EXPECT_FALSE(default_retryable(ErrorCategory::kParseError));
  EXPECT_FALSE(default_retryable(ErrorCategory::kInternal));
}

TEST(ErrorTaxonomy, PipelineErrorCarriesStageCategoryContext) {
  ErrorContext context;
  context.router = "r1";
  context.host = "h2";
  context.iterations = 3;
  const PipelineError error(PipelineStage::kRouteEquivalence,
                            ErrorCategory::kInternal, "boom", context);
  EXPECT_EQ(error.stage(), PipelineStage::kRouteEquivalence);
  EXPECT_EQ(error.category(), ErrorCategory::kInternal);
  EXPECT_FALSE(error.retryable());
  EXPECT_EQ(error.context().router, "r1");
  const std::string what = error.what();
  EXPECT_NE(what.find("RouteEquivalence"), std::string::npos);
  EXPECT_NE(what.find("Internal"), std::string::npos);
  EXPECT_NE(what.find("router=r1"), std::string::npos);
  EXPECT_NE(what.find("host=h2"), std::string::npos);
  EXPECT_NE(what.find("iterations=3"), std::string::npos);
}

TEST(ErrorTaxonomy, TranslatesLowerLayerErrors) {
  const PrefixPoolExhausted pool(*Ipv4Prefix::parse("172.20.0.0/14"), 31, 5);
  const auto from_pool =
      translate_exception(PipelineStage::kTopologyAnon, pool);
  EXPECT_EQ(from_pool.category(), ErrorCategory::kResourceExhausted);
  EXPECT_EQ(from_pool.stage(), PipelineStage::kTopologyAnon);
  EXPECT_TRUE(from_pool.retryable());

  const KDegreeError infeasible(KDegreeError::Kind::kInfeasible, 10, 6, 0,
                                "infeasible");
  const auto from_infeasible =
      translate_exception(PipelineStage::kTopologyAnon, infeasible);
  EXPECT_EQ(from_infeasible.category(), ErrorCategory::kInfeasibleParams);
  EXPECT_TRUE(from_infeasible.retryable());
  EXPECT_EQ(from_infeasible.context().k, 6);

  const KDegreeError stuck(KDegreeError::Kind::kNonConvergent, 10, 6, 500,
                           "did not converge");
  EXPECT_EQ(translate_exception(PipelineStage::kTopologyAnon, stuck)
                .category(),
            ErrorCategory::kNonConvergent);

  const ConfigParseError parse("r1.cfg", 12, "bad mask");
  const auto from_parse =
      translate_exception(PipelineStage::kPreprocess, parse);
  EXPECT_EQ(from_parse.category(), ErrorCategory::kParseError);
  EXPECT_FALSE(from_parse.retryable());

  const std::runtime_error other("mystery");
  EXPECT_EQ(translate_exception(PipelineStage::kVerification, other)
                .category(),
            ErrorCategory::kInternal);
}

TEST(DataPlaneDiff, EqualPlanesHaveEmptyDiff) {
  DataPlane plane;
  plane.flows[{"h1", "h2"}] = {{"h1", "r1", "r2", "h2"}};
  EXPECT_TRUE(plane.diff(plane).empty());
}

TEST(DataPlaneDiff, ReportsDivergingNextHopTriple) {
  DataPlane lhs;
  lhs.flows[{"h1", "h2"}] = {{"h1", "r1", "r2", "h2"}};
  DataPlane rhs;
  rhs.flows[{"h1", "h2"}] = {{"h1", "r1", "r3", "h2"}};

  const auto entries = lhs.diff(rhs);
  ASSERT_FALSE(entries.empty());
  // r1 forwards to r2 in lhs but r3 in rhs.
  bool found = false;
  for (const auto& entry : entries) {
    if (entry.router == "r1") {
      found = true;
      EXPECT_EQ(entry.source, "h1");
      EXPECT_EQ(entry.destination, "h2");
      EXPECT_EQ(entry.lhs_next_hops, std::vector<std::string>{"r2"});
      EXPECT_EQ(entry.rhs_next_hops, std::vector<std::string>{"r3"});
    }
  }
  EXPECT_TRUE(found);
}

TEST(DataPlaneDiff, ReportsMissingFlow) {
  DataPlane lhs;
  lhs.flows[{"h1", "h2"}] = {{"h1", "r1", "h2"}};
  const DataPlane rhs;

  const auto entries = lhs.diff(rhs);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].source, "h1");
  EXPECT_EQ(entries[0].destination, "h2");
  EXPECT_TRUE(entries[0].router.empty());
  EXPECT_EQ(entries[0].lhs_next_hops, std::vector<std::string>{"r1"});
  EXPECT_TRUE(entries[0].rhs_next_hops.empty());
}

TEST(DataPlaneDiff, RespectsLimit) {
  DataPlane lhs;
  DataPlane rhs;
  for (int i = 0; i < 10; ++i) {
    std::string src = "h";
    src += std::to_string(i);
    lhs.flows[{src, "hd"}] = {{src, "r1", "hd"}};
  }
  const auto entries = lhs.diff(rhs, /*limit=*/3);
  EXPECT_EQ(entries.size(), 3u);
}

TEST(DataPlaneDiff, HostsCollectsEndpoints) {
  DataPlane plane;
  plane.flows[{"h1", "h2"}] = {{"h1", "r1", "h2"}};
  plane.flows[{"h2", "h3"}] = {{"h2", "r1", "h3"}};
  EXPECT_EQ(plane.hosts(), (std::set<std::string>{"h1", "h2", "h3"}));
}

TEST(PipelineRunner, PreFiredCancelTokenFailsClosedAsDeadlineExceeded) {
  // A deadline that expired before the run began: the runner must refuse
  // to start the attempt, land in the DeadlineExceeded taxonomy, and ship
  // no configs — within one poll point, no pipeline work performed.
  CancelToken token;
  token.set_deadline_after(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(token.fired(), CancelToken::Reason::kDeadline);
  const auto guarded = run_pipeline_guarded(make_figure2(), figure2_options(),
                                            {}, &token);
  EXPECT_FALSE(guarded.ok());
  EXPECT_FALSE(guarded.result.has_value());  // fail closed: no configs
  EXPECT_EQ(guarded.diagnostics.category, ErrorCategory::kDeadlineExceeded);
  EXPECT_EQ(exit_code_for(guarded.diagnostics.category), 15);
  EXPECT_NE(guarded.diagnostics.context.detail.find("deadline"),
            std::string::npos)
      << guarded.diagnostics.context.detail;
}

TEST(PipelineRunner, ExplicitCancellationIsDistinguishableFromDeadline) {
  CancelToken token;
  token.request_cancel();
  const auto guarded = run_pipeline_guarded(make_figure2(), figure2_options(),
                                            {}, &token);
  EXPECT_FALSE(guarded.ok());
  EXPECT_EQ(guarded.diagnostics.category, ErrorCategory::kDeadlineExceeded);
  // The reason travels in the error context so the scheduler can tell a
  // user cancel (kCancelled) from a blown deadline (kFailed).
  EXPECT_NE(guarded.diagnostics.context.detail.find("cancelled"),
            std::string::npos)
      << guarded.diagnostics.context.detail;
}

// A deadline past what steady_clock can represent is no deadline: the
// token never fires. Converting such a budget to clock ticks overflows.
TEST(PipelineRunner, DeadlinePastTheClockRangeNeverFires) {
  for (const std::uint64_t budget_ms :
       {std::uint64_t{10'000'000'000'000}, ~std::uint64_t{0}}) {
    CancelToken token;
    token.set_deadline_after(budget_ms);
    EXPECT_EQ(token.fired(), CancelToken::Reason::kNone) << budget_ms;
  }
}

TEST(PipelineRunner, UnfiredTokenDoesNotPerturbACleanRun) {
  CancelToken token;
  token.set_deadline_after(60'000);
  const auto guarded = run_pipeline_guarded(make_figure2(), figure2_options(),
                                            {}, &token);
  ASSERT_TRUE(guarded.ok());
  EXPECT_TRUE(guarded.result->functionally_equivalent);
  // Byte-identical to an uncancelled run: the token is observed, never
  // woven into the output.
  const auto baseline =
      run_pipeline_guarded(make_figure2(), figure2_options());
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(canonical_config_set_text(guarded.result->anonymized),
            canonical_config_set_text(baseline.result->anonymized));
}

}  // namespace
}  // namespace confmask
