#include "src/core/pipeline_trace.hpp"

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

}  // namespace

void write_counters(JsonWriter& out, std::string_view key,
                    const std::map<std::string, std::uint64_t>& counters) {
  out.object(key);
  for (const auto& [name, value] : counters) out.number_u64(name, value);
  out.end();
}

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
  if (out_sink() != nullptr) out_sink()->write_line(line("trace_begin").str());
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
    out_sink()->write_line(
        line("trace_end").number_u64("spans", next_id_).str());
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
  std::string text;
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
      text = line("span_begin")
                 .number_u64("id", id)
                 .number_u64("parent", frame.parent)
                 .string("path", frame.path)
                 .str();
    }
    stack_.push_back(std::move(frame));
  }
  if (!text.empty()) out_sink()->write_line(text);
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
        JsonWriter text = line("span_end");
        text.number_u64("id", frame.id)
            .string("path", frame.path)
            .number_u64("dur_ns", duration);
        write_counters(text, "counters", frame.counters);
        lines.push_back(std::move(text).str());
      }
      if (frame.id == id) break;
    }
  }
  for (const std::string& text : lines) out_sink()->write_line(text);
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
  std::string text;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    text = line("event").string("name", name).string("detail", detail).str();
  }
  out_sink()->write_line(text);
}

JsonWriter PipelineTrace::line(std::string_view type) {
  JsonWriter out;
  if (!options_.tag.empty()) out.string("job", options_.tag);
  // The stream's first line names its schema.
  if (next_seq_ == 0) out.string("schema", "confmask.trace/1");
  out.string("type", type).number_u64("seq", next_seq_++);
  return out;
}

std::vector<SpanMetrics> PipelineTrace::metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanMetrics> out;
  out.reserve(aggregate_.size());
  for (const auto& [path, metrics] : aggregate_) out.push_back(metrics);
  return out;
}

std::string PipelineTrace::metrics_json(bool include_timings) const {
  JsonWriter out(JsonWriter::Layout::kLines);
  write_metrics(out, include_timings);
  return std::move(out).str();
}

void PipelineTrace::write_metrics(JsonWriter& out,
                                  bool include_timings) const {
  using Layout = JsonWriter::Layout;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.string("schema", "confmask.metrics/1")
      .boolean("deterministic", !include_timings);

  // Spans: path-sorted (std::map), counters key-sorted — stable order.
  out.array("spans", Layout::kLines);
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [path, span] : aggregate_) {
    out.object().string("path", path).number_u64("count", span.count);
    write_counters(out, "counters", span.counters);
    out.end();
    for (const auto& [name, value] : span.counters) totals[name] += value;
  }
  out.end();

  // Totals: every counter summed across all spans — the per-run invariant
  // CI compares across worker counts.
  write_counters(out, "totals", totals);

  out.array("histograms", Layout::kLines);
  for (const auto& [name, histogram] : histograms_) {
    const auto snap = histogram.snapshot();
    out.object()
        .string("name", name)
        .number_u64("count", snap.count)
        .number_u64("sum", snap.sum)
        .number_u64("min", snap.min)
        .number_u64("max", snap.max)
        .array("buckets");
    for (std::size_t width = 0; width < obs::Histogram::kBuckets; ++width) {
      if (snap.buckets[width] == 0) continue;
      out.array().number_u64(width).number_u64(snap.buckets[width]).end();
    }
    out.end().end();
  }
  out.end();

  if (!include_timings) return;

  out.array("timings", Layout::kLines);
  for (const auto& [path, span] : aggregate_) {
    out.object()
        .string("path", path)
        .number_u64("total_ns", span.total_ns)
        .end();
  }
  out.end();

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
  out.object("pool")
      .number_u64("workers", now.workers.size())
      .number_u64("batches", now.batches)
      .number_u64("tasks", now.tasks)
      .array("per_worker");
  for (const auto& worker : now.workers) {
    out.object()
        .number_u64("tasks", worker.tasks)
        .number_u64("idle_ns", worker.idle_ns)
        .end();
  }
  out.end().end();
}

}  // namespace confmask
