#include "src/core/pipeline_trace.hpp"

#include <algorithm>
#include <atomic>

namespace confmask {

namespace {

// Single active trace per process, installed by compare-exchange (a second
// concurrent trace simply records nothing). Relaxed ordering is enough:
// the trace object is fully constructed before install, and spans /
// counters synchronize internally.
std::atomic<PipelineTrace*> g_active{nullptr};

// Thread-scoped installs (Options::Scope::kThread): one slot per thread,
// consulted before the process-wide slot so each scheduler job thread sees
// its own trace while the rest of the process stays untraced.
thread_local PipelineTrace* t_active = nullptr;

/// {"a": 1, "b": 2} with std::map's sorted-key order — the stable-key-order
/// guarantee of the metrics schema.
std::string counters_json(const std::map<std::string, std::uint64_t>& map) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : map) {
    out += std::string(first ? "" : ", ") + obs::json_quote(name) + ": " +
           std::to_string(value);
    first = false;
  }
  return out + "}";
}

}  // namespace

PipelineTrace* PipelineTrace::active() {
  if (t_active != nullptr) return t_active;
  return g_active.load(std::memory_order_relaxed);
}

PipelineTrace::PipelineTrace() : PipelineTrace(Options{}) {}

PipelineTrace::PipelineTrace(Options options) : options_(std::move(options)) {
  if (options_.shared_sink == nullptr && options_.trace_sink != nullptr) {
    sink_ = std::make_unique<obs::NdjsonSink>(*options_.trace_sink);
  }
  if (options_.scope == Options::Scope::kThread) {
    installed_ = t_active == nullptr;
    if (installed_) t_active = this;
  } else {
    PipelineTrace* expected = nullptr;
    installed_ = g_active.compare_exchange_strong(expected, this,
                                                  std::memory_order_relaxed);
  }
  pool_baseline_ = ThreadPool::shared().stats();
  if (options_.scope == Options::Scope::kProcess) {
    // Idle tracking is a process-global switch; concurrent thread-scoped
    // traces flipping it would fight, so only the solo-pipeline mode
    // opts the pool into idle accounting.
    idle_tracking_was_on_ = ThreadPool::idle_tracking();
    ThreadPool::set_idle_tracking(true);
  }
  if (out_sink() != nullptr) {
    emit("{\"schema\": \"confmask.trace/1\", \"type\": \"trace_begin\", "
         "\"seq\": " +
         std::to_string(next_seq_++) + "}");
  }
}

PipelineTrace::~PipelineTrace() {
  // Close anything left open (abnormal exits) so aggregation is complete.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!stack_.empty()) {
      // Inline end of the top frame (end_span would retake the mutex).
      Frame frame = std::move(stack_.back());
      stack_.pop_back();
      SpanMetrics& agg = aggregate_[frame.path];
      agg.path = frame.path;
      agg.count += 1;
      agg.total_ns += obs::monotonic_ns() - frame.start_ns;
      for (const auto& [name, value] : frame.counters) {
        agg.counters[name] += value;
      }
    }
  }
  if (out_sink() != nullptr) {
    emit("{\"type\": \"trace_end\", \"seq\": " + std::to_string(next_seq_++) +
         ", \"spans\": " + std::to_string(next_id_) + "}");
  }
  if (options_.scope == Options::Scope::kThread) {
    if (installed_) t_active = nullptr;
  } else {
    ThreadPool::set_idle_tracking(idle_tracking_was_on_);
    if (installed_) {
      g_active.store(nullptr, std::memory_order_relaxed);
    }
  }
}

PipelineTrace::Span PipelineTrace::begin(std::string_view name) {
  PipelineTrace* trace = active();
  return trace == nullptr ? Span{} : trace->span(name);
}

void PipelineTrace::count(std::string_view name, std::uint64_t delta) {
  if (PipelineTrace* trace = active()) {
    trace->add_counter(name, delta);
  }
}

void PipelineTrace::record(std::string_view name, std::uint64_t value) {
  if (PipelineTrace* trace = active()) {
    trace->record_value(name, value);
  }
}

PipelineTrace::Span PipelineTrace::span(std::string_view name) {
  std::uint64_t id = 0;
  std::string line;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Frame frame;
    frame.id = ++next_id_;
    frame.parent = stack_.empty() ? 0 : stack_.back().id;
    frame.path = stack_.empty() ? std::string(name)
                                : stack_.back().path + "/" + std::string(name);
    frame.start_ns = obs::monotonic_ns();
    id = frame.id;
    if (out_sink() != nullptr) {
      line = "{\"type\": \"span_begin\", \"seq\": " +
             std::to_string(next_seq_++) + ", \"id\": " + std::to_string(id) +
             ", \"parent\": " + std::to_string(frame.parent) +
             ", \"path\": " + obs::json_quote(frame.path) + "}";
    }
    stack_.push_back(std::move(frame));
  }
  if (!line.empty()) emit(line);
  return Span{this, id};
}

void PipelineTrace::Span::add(std::string_view name, std::uint64_t delta) {
  if (trace_ != nullptr) trace_->add_to_span(id_, name, delta);
}

void PipelineTrace::Span::end() {
  if (trace_ != nullptr) {
    trace_->end_span(id_);
    trace_ = nullptr;
  }
}

void PipelineTrace::end_span(std::uint64_t id) {
  std::vector<std::string> lines;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Spans close LIFO (RAII on one thread); pop through to `id` so a
    // leaked inner handle cannot wedge the stack.
    bool found = false;
    for (const Frame& frame : stack_) {
      if (frame.id == id) found = true;
    }
    if (!found) return;  // already closed (e.g. moved-from handle)
    while (!stack_.empty()) {
      Frame frame = std::move(stack_.back());
      stack_.pop_back();
      const std::uint64_t duration = obs::monotonic_ns() - frame.start_ns;
      SpanMetrics& agg = aggregate_[frame.path];
      agg.path = frame.path;
      agg.count += 1;
      agg.total_ns += duration;
      for (const auto& [name, value] : frame.counters) {
        agg.counters[name] += value;
      }
      if (out_sink() != nullptr) {
        lines.push_back(
            "{\"type\": \"span_end\", \"seq\": " + std::to_string(next_seq_++) +
            ", \"id\": " + std::to_string(frame.id) +
            ", \"path\": " + obs::json_quote(frame.path) +
            ", \"dur_ns\": " + std::to_string(duration) +
            ", \"counters\": " + counters_json(frame.counters) + "}");
      }
      if (frame.id == id) break;
    }
  }
  for (const std::string& line : lines) emit(line);
}

void PipelineTrace::add_to_span(std::uint64_t id, std::string_view name,
                                std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->id == id) {
      it->counters[std::string(name)] += delta;
      return;
    }
  }
}

void PipelineTrace::add_counter(std::string_view name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stack_.empty()) return;
  stack_.back().counters[std::string(name)] += delta;
}

void PipelineTrace::record_value(std::string_view name, std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  histograms_.try_emplace(std::string(name)).first->second.record(value);
}

void PipelineTrace::event(std::string_view name, std::string_view detail) {
  if (out_sink() == nullptr) return;
  std::string line;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    line = "{\"type\": \"event\", \"seq\": " + std::to_string(next_seq_++) +
           ", \"name\": " + obs::json_quote(name) +
           ", \"detail\": " + obs::json_quote(detail) + "}";
  }
  emit(line);
}

void PipelineTrace::emit(const std::string& line) {
  obs::NdjsonSink* sink = out_sink();
  if (sink == nullptr) return;
  if (options_.tag.empty()) {
    sink->write_line(line);
    return;
  }
  // Tag injection: every line is a "{...}" object, so splice the job field
  // in right after the opening brace.
  sink->write_line("{\"job\": " + obs::json_quote(options_.tag) + ", " +
                   line.substr(1));
}

std::vector<SpanMetrics> PipelineTrace::metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanMetrics> out;
  out.reserve(aggregate_.size());
  for (const auto& [path, metrics] : aggregate_) out.push_back(metrics);
  return out;
}

std::string PipelineTrace::metrics_json(bool include_timings) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"schema\": \"confmask.metrics/1\",\n";
  out += std::string("  \"deterministic\": ") +
         (include_timings ? "false" : "true") + ",\n";

  // Spans: path-sorted (std::map), counters key-sorted — stable order.
  out += "  \"spans\": [";
  bool first = true;
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [path, span] : aggregate_) {
    out += std::string(first ? "\n" : ",\n") + "    {\"path\": " +
           obs::json_quote(path) +
           ", \"count\": " + std::to_string(span.count) +
           ", \"counters\": " + counters_json(span.counters) + "}";
    for (const auto& [name, value] : span.counters) totals[name] += value;
    first = false;
  }
  out += aggregate_.empty() ? "],\n" : "\n  ],\n";

  // Totals: every counter summed across all spans — the per-run invariant
  // CI compares across worker counts.
  out += "  \"totals\": " + counters_json(totals) + ",\n";

  out += "  \"histograms\": [";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const auto snap = histogram.snapshot();
    std::string buckets = "[";
    bool first_bucket = true;
    for (std::size_t width = 0; width < obs::Histogram::kBuckets; ++width) {
      if (snap.buckets[width] == 0) continue;
      buckets += std::string(first_bucket ? "" : ", ") + "[" +
                 std::to_string(width) + ", " +
                 std::to_string(snap.buckets[width]) + "]";
      first_bucket = false;
    }
    buckets += "]";
    out += std::string(first ? "\n" : ",\n") + "    {\"name\": " +
           obs::json_quote(name) +
           ", \"count\": " + std::to_string(snap.count) +
           ", \"sum\": " + std::to_string(snap.sum) +
           ", \"min\": " + std::to_string(snap.min) +
           ", \"max\": " + std::to_string(snap.max) +
           ", \"buckets\": " + buckets + "}";
    first = false;
  }
  out += histograms_.empty() ? "]" : "\n  ]";

  if (!include_timings) {
    out += "\n}\n";
    return out;
  }

  out += ",\n  \"timings\": [";
  first = true;
  for (const auto& [path, span] : aggregate_) {
    out += std::string(first ? "\n" : ",\n") + "    {\"path\": " +
           obs::json_quote(path) +
           ", \"total_ns\": " + std::to_string(span.total_ns) + "}";
    first = false;
  }
  out += aggregate_.empty() ? "],\n" : "\n  ],\n";

  // Pool utilization since the trace was installed. configure() swaps the
  // pool object (fresh counters), making the baseline incomparable — fall
  // back to absolute numbers then.
  ThreadPoolStats now = ThreadPool::shared().stats();
  const bool comparable = now.workers.size() == pool_baseline_.workers.size() &&
                          now.batches >= pool_baseline_.batches &&
                          now.tasks >= pool_baseline_.tasks;
  const auto sat_sub = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  if (comparable) {
    now.batches -= pool_baseline_.batches;
    now.tasks -= pool_baseline_.tasks;
    for (std::size_t i = 0; i < now.workers.size(); ++i) {
      now.workers[i].tasks =
          sat_sub(now.workers[i].tasks, pool_baseline_.workers[i].tasks);
      now.workers[i].idle_ns =
          sat_sub(now.workers[i].idle_ns, pool_baseline_.workers[i].idle_ns);
    }
  }
  out += "  \"pool\": {\"workers\": " + std::to_string(now.workers.size()) +
         ", \"batches\": " + std::to_string(now.batches) +
         ", \"tasks\": " + std::to_string(now.tasks) + ", \"per_worker\": [";
  first = true;
  for (const auto& worker : now.workers) {
    out += std::string(first ? "" : ", ") + "{\"tasks\": " +
           std::to_string(worker.tasks) +
           ", \"idle_ns\": " + std::to_string(worker.idle_ns) + "}";
    first = false;
  }
  out += "]}\n}\n";
  return out;
}

}  // namespace confmask
