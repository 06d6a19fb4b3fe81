// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// One run = one workload: an untimed warm-up, a set-up repeated nine times
// (its median is setup_s), a closed-loop timed window with tracing off, and
// — for --trace 1 — a second window with tracing on plus direct calls into
// the layers the workload's ops go through. A window runs a fixed number of
// ops (see ops_for), so every commit times the same work. Every returned
// artifact is checked by checks.hpp after the windows, never inside them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/confmask.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Parameters of one run, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path daemon;    ///< confmaskd binary (serve workloads)
  fs::path work_dir;  ///< private scratch directory of this run
};

/// Paper defaults: k_R = 6, k_H = 2, p = 0.1.
[[nodiscard]] confmask::ConfMaskOptions paper_options(std::uint64_t seed);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 9;

/// The op count of a window that `seconds` of --seconds buy at `rate` ops
/// per second, at least 1. Each workload's rate is the throughput
/// measured when the benchmark was written, so a window takes about
/// --seconds on that hardware. The count, not the time, ends the window:
/// a faster program finishes the same ops sooner instead of running more
/// of them, and its daemon state, heap and tail sample stay comparable.
[[nodiscard]] inline std::size_t ops_for(double seconds, double rate) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds * rate)));
}

/// Spans and per-layer samples of a traced window. Spans are kept in
/// memory and written as NDJSON when the run ends: one root span per op
/// and one child span per layer call, all carrying the op id. Samples are
/// the per-op values the per-layer metrics take their medians from.
/// Thread-safe: the serve workloads record from two client threads.
class Tracer {
 public:
  Tracer();

  /// A fresh span id (reserve the root's id before its children).
  [[nodiscard]] std::uint64_t next_id();
  /// Records a finished span.
  void span(std::uint64_t op, std::uint64_t id, std::uint64_t parent,
            const std::string& name, Clock::time_point start,
            std::uint64_t dur_ns);
  /// Records a finished span and, when `metric` is non-empty, its
  /// duration in ms as one sample of that metric.
  void timed(std::uint64_t op, std::uint64_t parent, const std::string& name,
             Clock::time_point start, Clock::time_point end,
             const std::string& metric = "", const char* source = "op");
  /// One per-op sample of a per-layer metric; `source` says how it was
  /// obtained ("op": inside the timed op, "direct": a call the benchmark
  /// makes on the op's input after the window, "daemon": daemon counters).
  /// A metric takes all its samples from one source.
  void sample(const std::string& metric, double value,
              const char* source = "op");

  struct Samples {
    std::vector<double> values;
    std::string source;
  };
  [[nodiscard]] std::map<std::string, Samples> samples() const;
  void write_ndjson(const fs::path& path) const;

 private:
  struct Span {
    std::uint64_t op = 0, id = 0, parent = 0;
    std::string name;
    std::uint64_t start_ns = 0, dur_ns = 0;
  };
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, Samples> samples_;
};

/// Times `body` as a child span of `parent` when a tracer is given, else
/// just runs it.
template <typename Body>
auto traced_call(Tracer* tracer, std::uint64_t op, std::uint64_t parent,
                 const std::string& name, const std::string& metric,
                 const char* source, Body&& body) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(body())>) {
    body();
    if (tracer != nullptr) {
      tracer->timed(op, parent, name, start, Clock::now(), metric, source);
    }
  } else {
    auto value = body();
    if (tracer != nullptr) {
      tracer->timed(op, parent, name, start, Clock::now(), metric, source);
    }
    return value;
  }
}

/// Totals of the pipeline's own stage spans for one op, read from the
/// NDJSON span_end lines the program emits (a PipelineTrace sink in
/// process, the daemon's subscribe stream for serve ops).
struct StageTotals {
  std::map<std::string, double> stage_ms;  ///< top-level stage -> summed ms
  std::uint64_t simulations = 0;
  std::uint64_t filters_added = 0;  ///< route_anonymity/noise_pass
  std::uint64_t filters_kept = 0;   ///< route_anonymity
  std::uint64_t equivalence_iterations = 0;
  std::uint64_t fib_entries_scanned = 0;  ///< route_equivalence/iteration
  std::uint64_t span_ends = 0;
  /// The stream carried the trace's trace_begin line. Spans published
  /// before a subscriber attached are not replayed, so only a stream that
  /// saw trace_begin is known to hold every span of the op.
  bool complete = false;
  /// Folds one NDJSON line in; lines other than trace_begin and span_end
  /// are ignored.
  void add_line(const std::string& line);
};

/// Records a complete StageTotals as per-op samples of the core.* metrics.
void sample_stage_totals(Tracer& tracer, const StageTotals& totals,
                         bool with_simulations);

/// One timed window of a closed-loop workload. A window may run as equal
/// consecutive parts; the latency and throughput metrics are then medians
/// over the parts, so a host stall in one part moves one value of several.
struct Window {
  std::vector<double> op_ms;    ///< every op, failed ones included, by part
  std::vector<bool> verified;   ///< per op, filled by the checks
  std::vector<double> part_s;   ///< per part: first op start -> last op end
  std::vector<double> client_s;  ///< per client: start -> its last op end
  double cpu_ms = 0;            ///< user+sys of the working process
  double peak_rss_mb = 0;       ///< VmHWM of the working process
  bool rss_reset = false;       ///< VmHWM was reset at window start
};

struct WorkloadResult {
  std::vector<double> setup_s;  ///< one value per set-up repetition
  Window untraced;
  std::optional<Window> traced;
  std::unique_ptr<Tracer> tracer;  ///< traced runs only
  std::vector<std::string> facts;  ///< "name: value" lines for the report
  bool checks_self_test_ok = true;
  /// Ops that returned configs which then failed the independent checks
  /// (or, on serve-hits, differed from the set-up result): wrong outputs.
  std::size_t returned_unverified = 0;
  std::string storage_path;  ///< where journal/cache or inputs live
};

[[nodiscard]] WorkloadResult run_cold(const RunConfig& config);
[[nodiscard]] WorkloadResult run_serve_hits(const RunConfig& config);
[[nodiscard]] WorkloadResult run_serve_edits(const RunConfig& config);

/// The canonical watch edit of the serve-edits chains: a fresh prefix
/// list (one deny of a prefix unique to `edit` + terminal permit-all) bound
/// as an IGP distribute-list on the first interface of a router picked by
/// `pick`. Filter-only by construction.
void add_filter_edit(confmask::ConfigSet& configs, std::uint64_t pick,
                     int edit);

/// Prints the report and the final JSON line; returns the exit code.
int report(const RunConfig& config, const WorkloadResult& result);

// ---- process readings (/proc) ----
/// User+sys CPU of `pid` (0 = this process) in ms.
[[nodiscard]] double process_cpu_ms(int pid);
/// VmHWM of `pid` (0 = this process) in MB.
[[nodiscard]] double process_hwm_mb(int pid);
/// Resets VmHWM to the current RSS; false when the kernel refuses.
bool reset_hwm(int pid);

}  // namespace perfbench
