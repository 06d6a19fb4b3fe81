// Structured error taxonomy for the ConfMask pipeline.
//
// ConfMask's value proposition is that sharing anonymized configs is SAFE —
// so the pipeline must fail closed, and a failure must say precisely where
// and why it happened so the guarded runner (pipeline_runner.hpp) can pick
// the right fallback rung: reseed a randomized stage, relax k_r, widen a
// prefix pool, or refuse to publish.
//
// Deep layers (util/graph/config) throw their own typed errors with local
// context (PrefixPoolExhausted, KDegreeError, ConfigParseError); the
// pipeline translates them at stage boundaries into a PipelineError carrying
// the stage, a category, a retryability flag, and naming context. Every
// PipelineError still IS-A std::runtime_error, so pre-taxonomy catch sites
// keep working.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "src/util/cancellation.hpp"

namespace confmask {

/// Which pipeline stage (paper Fig 3, plus the §9 node-addition extension)
/// an error escaped from.
enum class PipelineStage {
  kPreprocess,        ///< baseline simulation / original index
  kNodeAddition,      ///< §9 fake-router extension
  kTopologyAnon,      ///< Step 1: k-degree topology anonymization
  kRouteEquivalence,  ///< Step 2.1: Algorithm 1 fixpoint
  kRouteAnonymity,    ///< Step 2.2: fake hosts + Algorithm 2
  kVerification,      ///< final simulate-and-compare gate
};

/// What went wrong, independent of where. The category (not the stage)
/// selects the fallback rung and the CLI exit code.
enum class ErrorCategory {
  kInfeasibleParams,   ///< no solution exists for these parameters (k_r too
                       ///< large, graph saturated) — relax parameters
  kResourceExhausted,  ///< a finite substrate ran dry (prefix pools) — widen
  kNonConvergent,      ///< a randomized search, fixpoint or verification
                       ///< did not settle — reseed, else fail closed
  kParseError,         ///< malformed input configuration — not retryable
  kInternal,           ///< invariant violation; a bug, never retryable
  kDeadlineExceeded,   ///< the job's deadline passed or it was cancelled
                       ///< mid-run (cancellation.hpp) — never retried,
                       ///< never cached
};

[[nodiscard]] const char* to_string(PipelineStage stage);
[[nodiscard]] const char* to_string(ErrorCategory category);

/// Distinct CLI exit code per category (10..15; 0 = success, 1 = generic
/// I/O failure, 2 = usage). Stable across releases — scripts depend on it.
[[nodiscard]] int exit_code_for(ErrorCategory category);

/// Whether the guarded runner should even consider retrying this category
/// (a specific error can override via the PipelineError constructor).
[[nodiscard]] bool default_retryable(ErrorCategory category);

/// Naming context attached to a PipelineError. All fields optional; empty
/// strings / negative counts mean "not applicable".
struct ErrorContext {
  std::string router;  ///< router involved, if any
  std::string host;    ///< host involved, if any
  std::string detail;  ///< free-form specifics (pool prefix, file, ...)
  int iterations = -1; ///< loop iterations completed before failing
  int k = -1;          ///< anonymity parameter in play
};

class PipelineError : public std::runtime_error {
 public:
  PipelineError(PipelineStage stage, ErrorCategory category,
                const std::string& message, ErrorContext context = {},
                std::optional<bool> retryable = std::nullopt);

  [[nodiscard]] PipelineStage stage() const { return stage_; }
  [[nodiscard]] ErrorCategory category() const { return category_; }
  [[nodiscard]] bool retryable() const { return retryable_; }
  [[nodiscard]] const ErrorContext& context() const { return context_; }
  /// The bare message, without the "[stage/category]" prefix.
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  PipelineStage stage_;
  ErrorCategory category_;
  bool retryable_;
  ErrorContext context_;
  std::string message_;
};

/// Translates a lower-layer exception escaping `stage` into a PipelineError
/// (PrefixPoolExhausted → ResourceExhausted, KDegreeError → by kind,
/// ConfigParseError → ParseError, anything else → Internal). PipelineErrors
/// pass through unchanged.
[[nodiscard]] PipelineError translate_exception(PipelineStage stage,
                                                const std::exception& error);

/// Runs a stage body, translating any escaping exception as above. This is
/// how run_pipeline attributes bare deep-layer throws to stages. Every
/// stage boundary is also a cancellation safe point: an expired deadline
/// or a client cancel stops the pipeline here at the latest (the round
/// loops inside the long stages poll more often).
template <typename Fn>
decltype(auto) run_stage(PipelineStage stage, Fn&& body) {
  try {
    poll_cancellation();
    return body();
  } catch (const PipelineError&) {
    throw;
  } catch (const std::exception& error) {
    throw translate_exception(stage, error);
  }
}

}  // namespace confmask
