// Deterministic fault-injection proofs of every rung of the guarded
// runner's retry/fallback ladder (acceptance criteria a–c of the
// fail-closed pipeline runner):
//   (a) reseed, then k_r relaxation, recover from injected infeasible
//       k-degree sequences;
//   (b) prefix-pool expansion recovers from injected allocator exhaustion;
//   (c) injected verification divergence makes run_pipeline_guarded fail
//       CLOSED — an error with non-empty DataPlane::diff diagnostics and no
//       anonymized configs; injected equivalence non-convergence fails
//       closed on its first attempt.
#include <cstdlib>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/core/metrics.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/graph/k_degree_anonymize.hpp"
#include "src/netgen/networks.hpp"
#include "src/util/prefix_allocator.hpp"
#include "tests/fault_injection.hpp"

namespace confmask {
namespace {

ConfMaskOptions figure2_options() {
  ConfMaskOptions options;
  options.k_r = 4;  // forces fake links on the 4-router Fig 2 network
  options.k_h = 2;
  options.seed = 7;
  return options;
}

std::vector<FallbackKind> kinds_of(const PipelineDiagnostics& diag) {
  std::vector<FallbackKind> kinds;
  for (const auto& event : diag.fallbacks) kinds.push_back(event.kind);
  return kinds;
}

// The hooks themselves: armed points fire exactly `count` times.
TEST(FaultRegistry, FiresExactlyArmedCount) {
  const ScopedFault fault(faults::kKDegreeInfeasible, 2);
  EXPECT_EQ(faults::remaining(faults::kKDegreeInfeasible), 2);
  EXPECT_TRUE(faults::fire(faults::kKDegreeInfeasible));
  EXPECT_TRUE(faults::fire(faults::kKDegreeInfeasible));
  EXPECT_FALSE(faults::fire(faults::kKDegreeInfeasible));
  EXPECT_EQ(faults::remaining(faults::kKDegreeInfeasible), 0);
  EXPECT_FALSE(faults::fire(faults::kPrefixPoolExhausted));  // un-armed
}

TEST(FaultRegistry, InjectedKDegreeFaultThrowsTypedError) {
  const ScopedFault fault(faults::kKDegreeInfeasible, 1);
  Graph graph(4);
  graph.add_edge(0, 1);
  Rng rng(1);
  EXPECT_THROW((void)k_degree_anonymize(graph, 2, rng), KDegreeError);
  // Consumed: the next call succeeds.
  EXPECT_NO_THROW((void)k_degree_anonymize(graph, 2, rng));
}

TEST(FaultRegistry, InjectedExhaustionThrowsTypedError) {
  const ScopedFault fault(faults::kPrefixPoolExhausted, 1);
  PrefixAllocator allocator;
  EXPECT_THROW((void)allocator.allocate_link(), PrefixPoolExhausted);
  EXPECT_NO_THROW((void)allocator.allocate_link());
}

// CONFMASK_FAULTS env parsing: well-formed pairs arm; malformed pairs are
// reported on stderr and skipped (previously std::atoi mapped "abc" to 0
// and dropped misspelled fault specs without a word).
TEST(FaultRegistry, EnvParsingArmsWellFormedPairs) {
  ::setenv("CONFMASK_FAULTS", "confmask.test.a=2,confmask.test.b=1", 1);
  faults::reload_env_for_testing();
  EXPECT_EQ(faults::remaining("confmask.test.a"), 2);
  EXPECT_EQ(faults::remaining("confmask.test.b"), 1);
  EXPECT_TRUE(faults::fire("confmask.test.a"));
  ::unsetenv("CONFMASK_FAULTS");
  faults::disarm_all();
}

TEST(FaultRegistry, EnvParsingRejectsMalformedPairsLoudly) {
  ::setenv("CONFMASK_FAULTS",
           "parse=abc,=3,noequals,confmask.test.ok=2,trail=2x,confmask.test."
           "zero=0,confmask.test.neg=-1",
           1);
  ::testing::internal::CaptureStderr();
  faults::reload_env_for_testing();
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  // The one well-formed positive pair is armed...
  EXPECT_EQ(faults::remaining("confmask.test.ok"), 2);
  // ...malformed counts arm nothing...
  EXPECT_EQ(faults::remaining("parse"), 0);
  EXPECT_EQ(faults::remaining("trail"), 0);
  // ...and each malformed pair is called out by name.
  EXPECT_NE(stderr_text.find("parse=abc"), std::string::npos) << stderr_text;
  EXPECT_NE(stderr_text.find("=3"), std::string::npos);
  EXPECT_NE(stderr_text.find("noequals"), std::string::npos);
  EXPECT_NE(stderr_text.find("trail=2x"), std::string::npos);
  // Explicit zero/negative counts are valid spellings of "disarmed": no
  // arming, no warning.
  EXPECT_EQ(faults::remaining("confmask.test.zero"), 0);
  EXPECT_EQ(stderr_text.find("confmask.test.zero"), std::string::npos);
  EXPECT_EQ(stderr_text.find("confmask.test.neg"), std::string::npos);
  ::unsetenv("CONFMASK_FAULTS");
  faults::disarm_all();
}

// (a) rung 1: an injected infeasible k-degree sequence on the first run is
// recovered by reseeding.
TEST(FaultLadder, ReseedRecoversFromInfeasibleKDegree) {
  const ScopedFault fault(faults::kKDegreeInfeasible, 1);
  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options());
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(guarded.diagnostics.attempts, 2);
  EXPECT_EQ(kinds_of(guarded.diagnostics),
            std::vector<FallbackKind>{FallbackKind::kReseed});
  EXPECT_NE(guarded.effective_options.seed, figure2_options().seed);
  EXPECT_TRUE(guarded.result->functionally_equivalent);
}

// (a) rung 2: when the reseed budget is spent and the fault persists, the
// ladder relaxes k_r stepwise down to the floor — and records it.
TEST(FaultLadder, RelaxesKrAfterReseedBudgetSpent) {
  const ScopedFault fault(faults::kKDegreeInfeasible, 3);
  RetryPolicy policy;
  policy.max_reseeds = 1;
  policy.k_r_floor = 2;
  policy.k_r_step = 1;

  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options(), policy);
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(guarded.diagnostics.attempts, 4);
  EXPECT_EQ(kinds_of(guarded.diagnostics),
            (std::vector<FallbackKind>{FallbackKind::kReseed,
                                       FallbackKind::kRelaxKr,
                                       FallbackKind::kRelaxKr}));
  EXPECT_EQ(guarded.effective_options.k_r, 2);
  EXPECT_TRUE(guarded.result->functionally_equivalent);
}

// (a) floor: a persistent infeasibility below-floor fails closed with the
// original category.
TEST(FaultLadder, FailsClosedWhenKrFloorReached) {
  const ScopedFault fault(faults::kKDegreeInfeasible, 100);
  RetryPolicy policy;
  policy.max_reseeds = 1;
  policy.k_r_floor = 3;  // k_r 4 → 3, then no rung left

  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options(), policy);
  EXPECT_FALSE(guarded.ok());
  EXPECT_FALSE(guarded.result.has_value());
  EXPECT_EQ(guarded.diagnostics.stage, PipelineStage::kTopologyAnon);
  EXPECT_EQ(guarded.diagnostics.category, ErrorCategory::kInfeasibleParams);
  EXPECT_NE(guarded.diagnostics.message.find("fallback ladder exhausted"),
            std::string::npos);
}

// (b) injected allocator exhaustion is recovered by widening the pools.
TEST(FaultLadder, ExpandsPrefixPoolOnExhaustion) {
  const ScopedFault fault(faults::kPrefixPoolExhausted, 1);
  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options());
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(guarded.diagnostics.attempts, 2);
  EXPECT_EQ(kinds_of(guarded.diagnostics),
            std::vector<FallbackKind>{FallbackKind::kExpandPrefixPool});
  // Default /14 link pool widened by 2 bits.
  ASSERT_TRUE(guarded.effective_options.link_pool.has_value());
  EXPECT_EQ(guarded.effective_options.link_pool->length(), 12);
  ASSERT_TRUE(guarded.effective_options.host_pool.has_value());
  EXPECT_EQ(guarded.effective_options.host_pool->length(), 10);
  EXPECT_TRUE(guarded.result->functionally_equivalent);
}

TEST(FaultLadder, FailsClosedWhenPoolExpansionBudgetSpent) {
  const ScopedFault fault(faults::kPrefixPoolExhausted, 100);
  RetryPolicy policy;
  policy.max_pool_expansions = 2;

  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options(), policy);
  EXPECT_FALSE(guarded.ok());
  EXPECT_EQ(guarded.diagnostics.category, ErrorCategory::kResourceExhausted);
  EXPECT_EQ(guarded.diagnostics.attempts, 3);  // initial + 2 expansions
}

// Injected route-equivalence non-convergence fails closed at once: the
// ladder has no rung for it, so there is no second attempt, no fallback
// and no configs, and the report names the equivalence stage.
TEST(FaultLadder, InjectedNonConvergenceFailsClosedAtOnce) {
  const ScopedFault fault(faults::kRouteEquivalenceNonConvergent, 1);
  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options());
  EXPECT_FALSE(guarded.ok());
  EXPECT_FALSE(guarded.result.has_value());
  EXPECT_EQ(guarded.diagnostics.stage, PipelineStage::kRouteEquivalence);
  EXPECT_EQ(guarded.diagnostics.category, ErrorCategory::kNonConvergent);
  EXPECT_EQ(guarded.diagnostics.attempts, 1);
  EXPECT_TRUE(guarded.diagnostics.fallbacks.empty());
  EXPECT_GT(guarded.diagnostics.context.iterations, 0);
}

// (c) THE fail-closed gate: verification divergence that survives every
// retry yields an error carrying non-empty DataPlane::diff diagnostics —
// and never the anonymized configs.
TEST(FaultLadder, VerificationFailureFailsClosedWithDivergence) {
  const ScopedFault fault(faults::kVerificationDiverge, 100);
  RetryPolicy policy;
  policy.max_reseeds = 2;

  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options(), policy);
  EXPECT_FALSE(guarded.ok());
  EXPECT_FALSE(guarded.result.has_value());  // NO configs — fail closed
  EXPECT_EQ(guarded.diagnostics.stage, PipelineStage::kVerification);
  EXPECT_EQ(guarded.diagnostics.category, ErrorCategory::kNonConvergent);
  EXPECT_EQ(guarded.diagnostics.attempts, 1 + policy.max_reseeds);
  EXPECT_EQ(kinds_of(guarded.diagnostics),
            (std::vector<FallbackKind>{FallbackKind::kReseed,
                                       FallbackKind::kReseed}));
  // The divergence names concrete ⟨router/flow, host, next-hop⟩ triples.
  ASSERT_FALSE(guarded.diagnostics.divergence.empty());
  const auto& entry = guarded.diagnostics.divergence.front();
  EXPECT_FALSE(entry.source.empty());
  EXPECT_FALSE(entry.destination.empty());
  EXPECT_FALSE(entry.lhs_next_hops.empty() && entry.rhs_next_hops.empty() &&
               !entry.router.empty());
}

// The injected divergence reaches the id comparison itself: the gate treats
// the first real flow (in name order) as undelivered, the configs stay
// equivalent, and the fail-closed report names exactly that flow.
TEST(FaultLadder, InjectedDivergenceDropsOneRealFlowAndTheReportNamesIt) {
  const ConfigSet original = make_figure2();
  const FlowKey first = simulated_data_plane(original).flows.begin()->first;
  {
    const ScopedFault fault(faults::kVerificationDiverge, 1);
    const PipelineResult result = run_confmask(original, figure2_options());
    EXPECT_FALSE(result.functionally_equivalent);
    ASSERT_TRUE(result.injected_undelivered_flow.has_value());
    EXPECT_EQ(*result.injected_undelivered_flow, first);
    std::set<std::string> real_hosts;
    for (const auto& host : original.hosts) real_hosts.insert(host.hostname);
    EXPECT_TRUE(simulated_data_plane(result.anonymized)
                    .equals_restricted(simulated_data_plane(original),
                                       real_hosts));
  }
  const ScopedFault fault(faults::kVerificationDiverge, 1);
  RetryPolicy policy;
  policy.max_reseeds = 0;
  const auto guarded =
      run_pipeline_guarded(original, figure2_options(), policy);
  ASSERT_FALSE(guarded.ok());
  ASSERT_EQ(guarded.diagnostics.divergence.size(), 1u);
  const auto& entry = guarded.diagnostics.divergence.front();
  EXPECT_EQ(entry.source, first.first);
  EXPECT_EQ(entry.destination, first.second);
  EXPECT_TRUE(entry.router.empty());  // the flow is missing, not rerouted
}

// Recovery resumes once the injected fault clears: the same divergence
// armed for exactly one run costs one reseed, then verifies.
TEST(FaultLadder, RecoversWhenDivergenceClears) {
  const ScopedFault fault(faults::kVerificationDiverge, 1);
  const auto guarded =
      run_pipeline_guarded(make_figure2(), figure2_options());
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(guarded.diagnostics.attempts, 2);
  EXPECT_EQ(kinds_of(guarded.diagnostics),
            std::vector<FallbackKind>{FallbackKind::kReseed});
}

}  // namespace
}  // namespace confmask
