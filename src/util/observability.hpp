// Generic observability primitives: thread-safe counters and histograms, a
// monotonic clock, JSON string escaping, and a serialized NDJSON line sink.
//
// These are the substrate under src/core/pipeline_trace.hpp (the
// pipeline-aware span/metrics layer). Design constraints, in order:
//  * Determinism: nothing here draws randomness or reads wall-clock time.
//    The only clock is monotonic_ns() (std::chrono::steady_clock), and its
//    values are used for durations only — never as data the pipeline
//    branches on, so instrumented runs stay bit-identical to bare runs.
//  * Thread-safety without perturbation: Counter/Histogram writes are
//    relaxed atomics, safe from ThreadPool workers; reads are meant for
//    merge points (after parallel_for returns), where no writer races.
//  * No dependencies: plain C++ standard library, hand-rolled JSON (the
//    repository convention — see examples/confmask_cli.cpp diagnostics).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace confmask::obs {

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock). The only
/// time source the observability layer uses: differences are meaningful,
/// absolute values are not, and wall-clock never leaks into results.
[[nodiscard]] std::uint64_t monotonic_ns();

/// Escapes `text` for embedding inside a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view text);

/// `text` as a JSON string literal: escaped and wrapped in double quotes.
[[nodiscard]] std::string json_quote(std::string_view text);

/// A monotonically increasing event/occurrence counter. Writes are relaxed
/// atomic adds (safe from pool workers); value() is exact once writers have
/// reached a merge point.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A log2-bucketed histogram of unsigned values (dirty-set sizes, filters
/// per iteration, tasks per batch). Bucket i counts values of bit width i:
/// bucket 0 holds exactly the value 0, bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i). record() is wait-free relaxed atomics; snapshot() is for
/// merge points.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit widths 0..64

  void record(std::uint64_t value);

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Writes newline-delimited JSON: one complete object per line, lines
/// serialized under a mutex so concurrent emitters never interleave bytes.
/// Does not own the stream; the caller keeps it alive and flushes/closes.
///
/// write_line is virtual so transports can interpose: confmaskd's event
/// broadcast sink (src/service/daemon.cpp) subclasses this to fan trace
/// lines out to `subscribe`d connections while still teeing them to the
/// operator's --trace stream. The stream-less protected constructor exists
/// for exactly those subclasses; the base write_line is then a no-op they
/// may or may not chain to.
class NdjsonSink {
 public:
  explicit NdjsonSink(std::ostream& out) : out_(&out) {}
  virtual ~NdjsonSink() = default;

  NdjsonSink(const NdjsonSink&) = delete;
  NdjsonSink& operator=(const NdjsonSink&) = delete;

  /// Writes `json_object` (a complete `{...}` object, no trailing newline)
  /// as one NDJSON line.
  virtual void write_line(std::string_view json_object);

 protected:
  NdjsonSink() = default;  ///< subclass hook: no underlying stream

 private:
  std::mutex mutex_;
  std::ostream* out_ = nullptr;
};

}  // namespace confmask::obs
