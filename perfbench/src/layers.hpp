// Layer-level instruments of the traced run: the guarded pipeline under a
// PipelineTrace the benchmark installs, and direct calls into the routing
// and graph layers (cold-1k) or the config and service layers (serve
// workloads) on one op's input.
#pragma once

#include <memory>
#include <string>

#include "perfbench/src/bench.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/job_journal.hpp"

namespace perfbench {

/// One run_pipeline_guarded call with a PipelineTrace installed; the stage
/// totals come from the trace's own span_end lines.
struct TracedPipeline {
  confmask::GuardedPipelineResult run;
  StageTotals stages;
  double pool_busy_share = 0;  ///< shared pool busy / (workers × wall)
};
[[nodiscard]] TracedPipeline traced_pipeline(
    const confmask::ConfigSet& original,
    const confmask::ConfMaskOptions& options);

/// The routing and graph calls of a cold run, made directly on an op's
/// original: Topology::build, a fresh Simulation, its data-plane
/// extraction and k_degree_anonymize at k_R. Child spans of a fresh root
/// span with op id `op`, one sample per routing.* and graph.* metric.
void probe_routing(Tracer& tracer, std::uint64_t op,
                   const confmask::ConfigSet& original);

/// What the direct service-side calls get for one served op.
struct ProbeInput {
  std::uint64_t op = 0;
  std::string original_text;    ///< canonical bundle the op submitted
  std::string anonymized_text;  ///< returned bundle
  std::string diagnostics;      ///< returned diagnostics JSON
  std::string diff_text;        ///< the op's diff; empty for a submit
};

/// Scratch journal and cache the service-layer calls write into.
class LayerProbe {
 public:
  explicit LayerProbe(const fs::path& scratch);
  /// The calls the daemon makes for one op, timed directly as child spans
  /// of a fresh root span: parse_config_set and canonical_config_set_text
  /// of the bundle, compute_cache_key, JobJournal::append_submit (with its
  /// fsync) and ArtifactCache::lookup of the published entry. For a
  /// resubmit (an input with a diff) also apply_bundle_diff and the
  /// ArtifactCache::store that publishes the new entry; a hit does
  /// neither, so those two are not sampled for it.
  void run(Tracer& tracer, const ProbeInput& input);

 private:
  std::unique_ptr<confmask::JobJournal> journal_;
  std::unique_ptr<confmask::ArtifactCache> cache_;
};

}  // namespace perfbench
