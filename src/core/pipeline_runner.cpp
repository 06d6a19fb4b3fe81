#include "src/core/pipeline_runner.hpp"

#include <algorithm>

#include "src/core/original_index.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/prefix_allocator.hpp"

namespace confmask {

namespace {

/// Deterministic seed evolution (splitmix64 finalizer): retries are
/// reproducible for a given starting seed, yet successive seeds are
/// uncorrelated enough to re-randomize every tie-break in the pipeline.
std::uint64_t next_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Widens `pool` by `bits` (e.g. /14 → /12), realigning the network
/// address to the new length. Never widens past /4.
Ipv4Prefix widen(const Ipv4Prefix& pool, int bits) {
  const int length = std::max(4, pool.length() - bits);
  return Ipv4Prefix(pool.network(), length);
}

/// The divergence between the original data plane and the anonymized one,
/// restricted to the hosts the original knows (fake-host flows are not
/// divergences — they are the anonymization). Failure path only: the gate
/// compares node ids, so both name planes are built here.
std::vector<DataPlaneDiffEntry> divergence_of(const PipelineResult& result,
                                              const OriginalIndex& index,
                                              std::size_t limit) {
  const DataPlane original = index.data_plane();
  DataPlane anonymized = Simulation(result.anonymized).extract_data_plane();
  if (result.injected_undelivered_flow) {
    anonymized.flows.erase(*result.injected_undelivered_flow);
  }
  return original.diff(anonymized.restricted_to(original.hosts()), limit);
}

}  // namespace

const char* to_string(FallbackKind kind) {
  switch (kind) {
    case FallbackKind::kReseed: return "Reseed";
    case FallbackKind::kRelaxKr: return "RelaxKr";
    case FallbackKind::kExpandPrefixPool: return "ExpandPrefixPool";
  }
  return "Unknown";
}

GuardedPipelineResult run_pipeline_guarded(const ConfigSet& original,
                                           const ConfMaskOptions& options,
                                           const RetryPolicy& policy,
                                           const CancelToken* cancel) {
  return run_pipeline_guarded(original, options, policy, cancel, nullptr,
                              nullptr);
}

GuardedPipelineResult run_pipeline_guarded(const ConfigSet& original,
                                           const ConfMaskOptions& options,
                                           const RetryPolicy& policy,
                                           const CancelToken* cancel,
                                           const PatchContext* patch_base,
                                           PatchCapture* patch_capture) {
  // Ambient for the whole guarded run: every run_stage boundary and round
  // loop below us polls this token without parameter plumbing.
  CancelScope cancel_scope(cancel);
  GuardedPipelineResult out;
  ConfMaskOptions opts = options;
  auto& diag = out.diagnostics;

  int reseeds = 0;
  int pool_expansions = 0;
  // Computed by the first attempt and shared by the rest: nothing the
  // ladder changes feeds it (confmask.hpp).
  std::optional<Preprocessed> preprocessed;

  const auto record = [&](FallbackKind kind, std::string detail) {
    // Fallback rungs are point events on the trace stream (not spans):
    // stage span paths stay identical whether a run took one attempt or
    // ten, so metrics diffs across configurations remain meaningful.
    if (PipelineTrace* trace = PipelineTrace::active()) {
      trace->event(std::string("fallback.") + to_string(kind), detail);
    }
    diag.fallbacks.push_back(
        FallbackEvent{kind, diag.attempts, std::move(detail)});
  };

  // One reseed rung shared by every randomness-sensitive failure.
  const auto try_reseed = [&](const char* why) {
    if (reseeds >= policy.max_reseeds) return false;
    ++reseeds;
    const std::uint64_t fresh = next_seed(opts.seed);
    record(FallbackKind::kReseed,
           std::string(why) + ": seed " + std::to_string(opts.seed) +
               " -> " + std::to_string(fresh));
    opts.seed = fresh;
    return true;
  };

  const auto try_relax_kr = [&] {
    const int relaxed = opts.k_r - policy.k_r_step;
    if (relaxed < policy.k_r_floor) return false;
    record(FallbackKind::kRelaxKr, "k_r " + std::to_string(opts.k_r) +
                                       " -> " + std::to_string(relaxed));
    opts.k_r = relaxed;
    return true;
  };

  const auto try_expand_pools = [&] {
    if (pool_expansions >= policy.max_pool_expansions) return false;
    ++pool_expansions;
    const Ipv4Prefix link =
        opts.link_pool.value_or(PrefixAllocator::default_link_pool());
    const Ipv4Prefix host =
        opts.host_pool.value_or(PrefixAllocator::default_host_pool());
    opts.link_pool = widen(link, policy.pool_widen_bits);
    opts.host_pool = widen(host, policy.pool_widen_bits);
    record(FallbackKind::kExpandPrefixPool,
           "link " + link.str() + " -> " + opts.link_pool->str() + ", host " +
               host.str() + " -> " + opts.host_pool->str());
    return true;
  };

  const auto fail_with = [&](PipelineStage stage, ErrorCategory category,
                             std::string message, ErrorContext context = {}) {
    diag.ok = false;
    diag.stage = stage;
    diag.category = category;
    diag.message = std::move(message);
    diag.context = std::move(context);
    if (PipelineTrace* trace = PipelineTrace::active()) {
      trace->event("pipeline_failed", diag.message);
      diag.span_metrics = trace->metrics();
    }
    out.effective_options = opts;
    return out;
  };

  while (diag.attempts < policy.max_attempts) {
    // A fired token between attempts (e.g. the deadline passed while the
    // previous attempt was tearing down) must not start another run.
    if (cancel != nullptr && cancel->fired() != CancelToken::Reason::kNone) {
      ErrorContext context;
      context.detail = std::string("reason=") + to_string(cancel->fired());
      return fail_with(PipelineStage::kPreprocess,
                       ErrorCategory::kDeadlineExceeded,
                       "cancellation observed before attempt " +
                           std::to_string(diag.attempts + 1),
                       std::move(context));
    }
    ++diag.attempts;
    if (PipelineTrace* trace = PipelineTrace::active()) {
      trace->event("attempt_begin",
                   "attempt " + std::to_string(diag.attempts) + ", seed " +
                       std::to_string(opts.seed));
    }
    PipelineResult result;
    try {
      if (!preprocessed) {
        preprocessed = preprocess(original, patch_base);
      }
      result = run_pipeline(original, *preprocessed, opts,
                            EquivalenceStrategy::kConfMask, patch_base,
                            patch_capture);
    } catch (const PipelineError& error) {
      if (!error.retryable()) {
        return fail_with(error.stage(), error.category(), error.message(),
                         error.context());
      }
      bool acted = false;
      switch (error.category()) {
        case ErrorCategory::kInfeasibleParams:
        case ErrorCategory::kNonConvergent:
          // Randomized-substrate failure: fresh randomness first; when the
          // reseed budget is spent, trade anonymity for feasibility.
          acted = try_reseed(to_string(error.category())) || try_relax_kr();
          break;
        case ErrorCategory::kResourceExhausted:
          acted = try_expand_pools();
          break;
        case ErrorCategory::kParseError:
        case ErrorCategory::kInternal:
        case ErrorCategory::kDeadlineExceeded:
          break;
      }
      if (!acted) {
        return fail_with(error.stage(), error.category(),
                         error.message() + " (fallback ladder exhausted)",
                         error.context());
      }
      continue;
    } catch (const std::exception& error) {
      // A bare exception escaping run_pipeline is a translation gap — by
      // definition an internal bug, never retried.
      return fail_with(PipelineStage::kVerification,
                       ErrorCategory::kInternal, error.what());
    }

    if (!result.equivalence_converged) {
      ErrorContext context;
      context.iterations = result.stats.equivalence_iterations;
      auto failed = fail_with(
          PipelineStage::kRouteEquivalence, ErrorCategory::kNonConvergent,
          "route equivalence fixpoint not reached after " +
              std::to_string(result.stats.equivalence_iterations) +
              " iterations; refusing to return configs",
          std::move(context));
      failed.diagnostics.divergence =
          divergence_of(result, *preprocessed->index, policy.diff_limit);
      return failed;
    }

    if (!result.functionally_equivalent) {
      if (try_reseed("verification diverged")) continue;
      auto failed = fail_with(
          PipelineStage::kVerification, ErrorCategory::kNonConvergent,
          "anonymized data plane diverges from the original over real hosts"
          " (all retries exhausted); refusing to return configs");
      failed.diagnostics.divergence =
          divergence_of(result, *preprocessed->index, policy.diff_limit);
      return failed;
    }

    // Verified functionally equivalent — the only path that yields configs.
    diag.ok = true;
    diag.stage = PipelineStage::kVerification;
    diag.category = ErrorCategory::kInternal;  // unused on success
    diag.message = "verified functionally equivalent";
    if (PipelineTrace* trace = PipelineTrace::active()) {
      trace->event("pipeline_verified",
                   "attempts " + std::to_string(diag.attempts));
      diag.span_metrics = trace->metrics();
    }
    out.effective_options = opts;
    out.result = std::move(result);
    return out;
  }

  return fail_with(PipelineStage::kVerification, ErrorCategory::kNonConvergent,
                   "attempt budget exhausted (" +
                       std::to_string(policy.max_attempts) + " runs)");
}

std::string diagnostics_to_json(const PipelineDiagnostics& diag) {
  using Layout = JsonWriter::Layout;
  JsonWriter out(Layout::kLines);
  out.boolean("ok", diag.ok);
  if (diag.ok) {
    // Stage/category describe a terminal error; there is none on success.
    out.null("stage").null("category");
  } else {
    out.string("stage", to_string(diag.stage))
        .string("category", to_string(diag.category));
  }
  out.number("exit_code", diag.ok ? 0 : exit_code_for(diag.category))
      .string("message", diag.message)
      .number("attempts", diag.attempts)
      .array("fallbacks", Layout::kLines);
  for (const FallbackEvent& event : diag.fallbacks) {
    out.object()
        .string("kind", to_string(event.kind))
        .number("attempt", event.attempt)
        .string("detail", event.detail)
        .end();
  }
  out.end().array("divergence", Layout::kLines);
  const auto write_hops = [&out](std::string_view key,
                                 const std::vector<std::string>& hops) {
    out.array(key);
    for (const std::string& hop : hops) out.string(hop);
    out.end();
  };
  for (const DataPlaneDiffEntry& entry : diag.divergence) {
    out.object()
        .string("source", entry.source)
        .string("destination", entry.destination)
        .string("router", entry.router);
    write_hops("expected_next_hops", entry.lhs_next_hops);
    write_hops("actual_next_hops", entry.rhs_next_hops);
    out.end();
  }
  // Per-phase span aggregates (populated only when a trace was active);
  // counts/counters aggregate across all attempts.
  out.end().array("phases", Layout::kLines);
  for (const SpanMetrics& span : diag.span_metrics) {
    out.object()
        .string("path", span.path)
        .number_u64("count", span.count)
        .number_u64("total_ns", span.total_ns);
    write_counters(out, "counters", span.counters);
    out.end();
  }
  return std::move(out).str();
}

}  // namespace confmask
