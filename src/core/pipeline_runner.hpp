// Fail-closed, self-healing driver over run_pipeline.
//
// run_pipeline is a single shot: it runs the stages once with the given
// parameters and reports what happened — including, today, returning
// anonymized configs whose verification FAILED (the caller must check
// `functionally_equivalent`). That fail-open contract is unacceptable for a
// tool whose whole point is that sharing its output is safe.
//
// run_pipeline_guarded closes it. It drives run_pipeline through a
// retry/fallback ladder keyed on the error taxonomy (errors.hpp):
//
//   InfeasibleParams / NonConvergent (thrown, randomized stages)
//       → reseed and retry (fresh randomness, up to RetryPolicy::max_reseeds)
//       → then relax k_r stepwise down to RetryPolicy::k_r_floor
//   ResourceExhausted (prefix pools)
//       → widen both pools by pool_widen_bits and retry
//   Route-equivalence fixpoint not reached (returned, not thrown; a
//   guarded run always uses ConfMask's Step 2.1, which runs to its
//   fixpoint, so only the injected fault can report it)
//       → FAIL CLOSED at once
//   Verification failed (anonymized ≠ original over real hosts)
//       → reseed and retry; after all retries: FAIL CLOSED
//
// No rung changes what preprocessing reads, so it runs once, in the first
// attempt, and every later attempt reuses its simulation and index.
//
// Fail closed means: the returned GuardedPipelineResult carries NO
// anonymized configs — only diagnostics, including the first N divergent
// ⟨router, host, next-hop⟩ triples (DataPlane::diff) so the operator can see
// *where* equivalence broke. Every fallback rung that fired is recorded, so
// a successful run still tells you how hard it had to work.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/errors.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/routing/dataplane.hpp"

namespace confmask {

/// Which rung of the fallback ladder fired.
enum class FallbackKind {
  kReseed,            ///< fresh seed for the randomized stages
  kRelaxKr,           ///< lowered the topology anonymity parameter
  kExpandPrefixPool,  ///< widened the fake link/host prefix pools
};

[[nodiscard]] const char* to_string(FallbackKind kind);

struct FallbackEvent {
  FallbackKind kind;
  int attempt = 0;     ///< 1-based attempt whose failure triggered the rung
  std::string detail;  ///< human-readable "what changed"
};

/// Ladder configuration. The defaults match the ISSUE/DESIGN contract;
/// tests shrink them to force specific rungs.
struct RetryPolicy {
  /// Reseed-and-retry budget shared by all reseed-triggering failures.
  int max_reseeds = 2;
  /// k_r relaxation: step down by `k_r_step` but never below `k_r_floor`
  /// (k < 2 would make "k-anonymity" meaningless).
  int k_r_floor = 2;
  int k_r_step = 1;
  /// Prefix-pool expansion: widen each pool by `pool_widen_bits` bits per
  /// ResourceExhausted failure, at most `max_pool_expansions` times.
  int max_pool_expansions = 2;
  int pool_widen_bits = 2;
  /// Cap on divergence triples reported by the fail-closed gate.
  std::size_t diff_limit = 16;
  /// Hard backstop on total pipeline attempts.
  int max_attempts = 16;
};

/// What happened, whether or not configs were produced. On failure `stage`,
/// `category`, `message` and `context` describe the terminal error;
/// `divergence` is populated when verification (or the equivalence
/// fixpoint) is what failed.
struct PipelineDiagnostics {
  bool ok = false;
  PipelineStage stage = PipelineStage::kVerification;
  ErrorCategory category = ErrorCategory::kInternal;
  std::string message;
  ErrorContext context;
  int attempts = 0;  ///< pipeline runs performed (≥ 1)
  std::vector<FallbackEvent> fallbacks;
  std::vector<DataPlaneDiffEntry> divergence;
  /// Per-phase span aggregates from the active PipelineTrace, captured at
  /// exit (success or failure). Empty when no trace was installed. Counts
  /// aggregate across ALL attempts — the stage paths are identical whether
  /// the run needed one attempt or ten (attempt boundaries are NDJSON
  /// `event` lines, not spans, so path taxonomy stays uniform).
  std::vector<SpanMetrics> span_metrics;
};

struct GuardedPipelineResult {
  /// Engaged IFF the final attempt converged AND verified functionally
  /// equivalent — the fail-closed guarantee: no verified equivalence, no
  /// configs.
  std::optional<PipelineResult> result;
  /// The options of the final attempt (reseeded seed, relaxed k_r, widened
  /// pools) — what it actually took.
  ConfMaskOptions effective_options;
  PipelineDiagnostics diagnostics;

  [[nodiscard]] bool ok() const { return result.has_value(); }
};

/// Runs the pipeline (ConfMask's Step 2.1; the strawmen run only through
/// the single-shot run_pipeline) under the retry/fallback ladder. Never
/// throws for pipeline-level failures (they land in diagnostics); never
/// returns configs that were not verified functionally equivalent.
///
/// `cancel`, when non-null, is installed as the ambient cancellation token
/// (CancelScope) for the duration of the call: an expired deadline or a
/// requested cancel stops the run at the next poll point (stage boundaries
/// plus the round loops inside the long stages) and yields a
/// DeadlineExceeded diagnostic. Cancellation is never retried — the ladder
/// does not run for it.
[[nodiscard]] GuardedPipelineResult run_pipeline_guarded(
    const ConfigSet& original, const ConfMaskOptions& options,
    const RetryPolicy& policy = {}, const CancelToken* cancel = nullptr);

struct PatchContext;
struct PatchCapture;

/// Watch-mode variant: threads `patch_base` / `patch_capture` through to
/// run_pipeline (see confmask.hpp). Every ladder attempt is offered the
/// same base — attempts whose ladder rung changed the stage-entry state
/// simply fall back stage by stage — and the capture always reflects the
/// FINAL attempt (run_pipeline resets it on entry).
[[nodiscard]] GuardedPipelineResult run_pipeline_guarded(
    const ConfigSet& original, const ConfMaskOptions& options,
    const RetryPolicy& policy, const CancelToken* cancel,
    const PatchContext* patch_base, PatchCapture* patch_capture);

/// Machine-readable rendering of the diagnostics: status, terminal error,
/// every fallback-ladder event, the fail-closed gate's divergence triples,
/// and per-phase span aggregates. One implementation shared by the CLI's
/// --diagnostics-json and the serving layer's cached diagnostics artifact,
/// so the payload can never fork between the two.
[[nodiscard]] std::string diagnostics_to_json(const PipelineDiagnostics& diag);

}  // namespace confmask
