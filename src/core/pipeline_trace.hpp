// Pipeline-aware tracing and metrics: RAII phase spans, per-path counter
// aggregation, log2 histograms, an NDJSON event stream, and a
// schema-versioned end-of-run metrics summary.
//
// Usage model (zero overhead when disabled):
//  * A driver (CLI, bench, test) constructs a PipelineTrace, which installs
//    itself as the process-wide active trace for its lifetime. With no
//    trace installed, every instrumentation site reduces to one relaxed
//    atomic load returning nullptr.
//  * Instrumented code opens spans with PipelineTrace::begin("name") —
//    an RAII handle that is inert when tracing is off. Spans nest: a span
//    opened while "route_equivalence" is open aggregates under the path
//    "route_equivalence/iteration". Counters attach to the innermost open
//    span (Span::add or PipelineTrace::count).
//  * Span lifecycle runs on the orchestration thread ONLY (the pipeline's
//    driver thread). ThreadPool workers never open spans or touch frame
//    state; worker-side quantities are recorded in obs::Histogram atomics
//    and folded in at merge points — this is how instrumentation stays
//    deterministic under any worker count.
//
// Determinism contract (DESIGN.md §9): the trace layer draws no
// randomness, reads no wall clock (monotonic durations only), and never
// feeds a value back into pipeline control flow. The metrics summary
// separates deterministic content (span counter totals, histograms —
// identical for a given seed across any --jobs value and across repeated
// runs) from timing content (durations, pool utilization), so
// metrics_json(/*include_timings=*/false) is byte-stable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/json_writer.hpp"
#include "src/util/observability.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {

/// Aggregated measurements of every span sharing one path. `counters` are
/// summed across the `count` openings.
struct SpanMetrics {
  std::string path;  ///< "/"-joined nesting chain, e.g. "route_equivalence/iteration"
  std::uint64_t count = 0;     ///< times a span with this path was opened
  std::uint64_t total_ns = 0;  ///< summed monotonic durations
  std::map<std::string, std::uint64_t> counters;
};

/// Writes `counters` as the inline object member `key` in sorted key order:
/// the counters of trace lines, metrics.json and the diagnostics' phases.
void write_counters(JsonWriter& out, std::string_view key,
                    const std::map<std::string, std::uint64_t>& counters);

class PipelineTrace {
 public:
  struct Options {
    /// Destination for the NDJSON event stream (span_begin/span_end/event
    /// lines). nullptr = no event stream; aggregation still happens.
    /// Not owned; must outlive the trace.
    std::ostream* trace_sink = nullptr;
    /// Alternative to `trace_sink`: an externally owned NdjsonSink, so
    /// several traces can interleave whole lines onto ONE stream without
    /// tearing, or a subclass can take the lines (the serving layer's
    /// per-job traces). Takes precedence over trace_sink. Not owned; must
    /// outlive the trace.
    obs::NdjsonSink* shared_sink = nullptr;
    /// When non-empty, every NDJSON line this trace emits carries a leading
    /// "job": "<tag>" field — how a reader of confmaskd's --trace stream
    /// attributes interleaved span lines to jobs.
    std::string tag;
    /// Installation scope. kProcess (the default, and the only pre-serving
    /// behavior): the trace is what PipelineTrace::active() resolves to on
    /// EVERY thread — right for one pipeline per process. kThread: the
    /// trace is active only on the installing thread — right for the job
    /// scheduler, where several pipelines run concurrently and each job
    /// thread is the orchestration thread of its own pipeline. All span /
    /// counter / histogram instrumentation sites run on the orchestration
    /// thread (the file comment's lifecycle rule), so a thread-scoped trace
    /// captures its pipeline completely and deterministically; it never
    /// flips the process-global pool idle-tracking switch, so the "pool"
    /// timing section reflects shared-pool totals, not per-job idle time.
    enum class Scope { kProcess, kThread };
    Scope scope = Scope::kProcess;
  };

  PipelineTrace();  // no NDJSON sink; aggregation only
  explicit PipelineTrace(Options options);
  ~PipelineTrace();

  PipelineTrace(const PipelineTrace&) = delete;
  PipelineTrace& operator=(const PipelineTrace&) = delete;

  /// The installed trace, or nullptr when tracing is disabled — a
  /// thread-local read plus one relaxed atomic load, the whole cost of an
  /// untraced run. A thread-scoped trace installed on the calling thread
  /// wins over the process-wide one. When same-scope traces nest (a traced
  /// test calling a traced helper), the outermost wins and inner ones are
  /// inert.
  [[nodiscard]] static PipelineTrace* active();

  /// RAII span handle. Default-constructed (or moved-from) handles are
  /// inert: every operation is a no-op. The destructor ends the span.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept : trace_(other.trace_), id_(other.id_) {
      other.trace_ = nullptr;
    }
    Span& operator=(Span&& other) noexcept {
      if (this != &other) {
        end();
        trace_ = other.trace_;
        id_ = other.id_;
        other.trace_ = nullptr;
      }
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    /// Adds `delta` to counter `name` of this span.
    void add(std::string_view name, std::uint64_t delta = 1);
    /// Closes the span (idempotent; implied by destruction).
    void end();
    /// True when this handle refers to a live span on an active trace.
    explicit operator bool() const { return trace_ != nullptr; }

   private:
    friend class PipelineTrace;
    Span(PipelineTrace* trace, std::uint64_t id) : trace_(trace), id_(id) {}
    PipelineTrace* trace_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /// Opens a child of the innermost open span on the ACTIVE trace; returns
  /// an inert Span when tracing is off. The one-liner instrumentation
  /// sites use.
  [[nodiscard]] static Span begin(std::string_view name);

  /// Adds to the innermost open span of the active trace; no-op when
  /// tracing is off or no span is open.
  static void count(std::string_view name, std::uint64_t delta = 1);

  /// Records `value` into histogram `name` of the active trace (thread-safe
  /// — this is the one instrumentation call pool workers may make).
  static void record(std::string_view name, std::uint64_t value);

  /// Same as the statics, on an explicit instance.
  [[nodiscard]] Span span(std::string_view name);
  void add_counter(std::string_view name, std::uint64_t delta);
  void record_value(std::string_view name, std::uint64_t value);

  /// Emits a point event line on the NDJSON stream (no-op without a sink):
  /// {"type":"event","seq":N,"name":...,"detail":...}. The guarded
  /// runner's fallback-ladder rungs land here.
  void event(std::string_view name, std::string_view detail);

  /// Aggregated per-path metrics, sorted by path. Call after the spans of
  /// interest have closed.
  [[nodiscard]] std::vector<SpanMetrics> metrics() const;

  /// Schema-versioned end-of-run summary ("confmask.metrics/1") with fixed
  /// key order, suitable for diffing. With include_timings=false the
  /// summary contains only deterministic content (byte-stable for a given
  /// seed, any worker count); with true it adds per-path durations and
  /// thread-pool utilization. A document: the root and its arrays one
  /// member per line, ending with a newline.
  [[nodiscard]] std::string metrics_json(bool include_timings = true) const;

  /// The same summary's members, written into the innermost open object of
  /// `out` (bench_scale nests it in each pipeline point).
  void write_metrics(JsonWriter& out, bool include_timings = true) const;

 private:
  struct Frame {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string path;
    std::uint64_t start_ns = 0;
    std::map<std::string, std::uint64_t> counters;
  };

  void end_span(std::uint64_t id);
  void add_to_span(std::uint64_t id, std::string_view name,
                   std::uint64_t delta);
  /// A new NDJSON line of `type` with the next seq, carrying the tag as its
  /// first field when set. Called under the mutex once spans can open.
  [[nodiscard]] JsonWriter line(std::string_view type);

  [[nodiscard]] obs::NdjsonSink* out_sink() const {
    return options_.shared_sink != nullptr ? options_.shared_sink
                                           : sink_.get();
  }

  Options options_;
  std::unique_ptr<obs::NdjsonSink> sink_;
  bool installed_ = false;
  mutable std::mutex mutex_;
  std::vector<Frame> stack_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_seq_ = 0;
  std::map<std::string, SpanMetrics> aggregate_;
  std::map<std::string, obs::Histogram> histograms_;
  // Pool utilization baseline at trace construction; metrics_json reports
  // the delta (guarded against ThreadPool::configure replacing the pool).
  ThreadPoolStats pool_baseline_;
  bool idle_tracking_was_on_ = false;
};

}  // namespace confmask
