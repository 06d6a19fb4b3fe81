#include "perfbench/src/layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/graph/k_degree_anonymize.hpp"
#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"
#include "src/service/cache_key.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {

namespace {

/// The five pipeline stages the per-layer table reports.
const char* const kStages[] = {"preprocess", "topology_anon",
                               "route_equivalence", "route_anonymity",
                               "verification"};

std::uint64_t ns_of(Clock::duration duration) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(duration).count());
}

/// The unsigned number following `key` in `line` (0 when absent).
std::uint64_t number_after(const std::string& line, std::size_t at) {
  return at == std::string::npos
             ? 0
             : std::strtoull(line.c_str() + at, nullptr, 10);
}

std::uint64_t field(const std::string& line, const std::string& key,
                    std::size_t from = 0) {
  const std::size_t at = line.find("\"" + key + "\": ", from);
  return number_after(line, at == std::string::npos
                                ? at
                                : at + key.size() + 4);
}

double busy_share(const confmask::ThreadPoolStats& before,
                  const confmask::ThreadPoolStats& after,
                  Clock::duration wall) {
  const std::size_t workers =
      std::min(before.workers.size(), after.workers.size());
  if (workers == 0 || wall.count() <= 0) return 0;
  double idle = 0;
  for (std::size_t i = 0; i < workers; ++i) {
    idle += static_cast<double>(after.workers[i].idle_ns -
                                before.workers[i].idle_ns);
  }
  const double capacity =
      static_cast<double>(workers) * static_cast<double>(ns_of(wall));
  return std::clamp(1.0 - idle / capacity, 0.0, 1.0);
}

}  // namespace

confmask::ConfMaskOptions paper_options(std::uint64_t seed) {
  confmask::ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = seed;
  return options;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

void Tracer::span(std::uint64_t op, std::uint64_t id, std::uint64_t parent,
                  const std::string& name, Clock::time_point start,
                  std::uint64_t dur_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{op, id, parent, name,
                        start > origin_ ? ns_of(start - origin_) : 0, dur_ns});
}

void Tracer::timed(std::uint64_t op, std::uint64_t parent,
                   const std::string& name, Clock::time_point start,
                   Clock::time_point end, const std::string& metric,
                   const char* source) {
  span(op, next_id(), parent, name, start, ns_of(end - start));
  if (!metric.empty()) sample(metric, ms_between(start, end), source);
}

void Tracer::sample(const std::string& metric, double value,
                    const char* source) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Samples& samples = samples_[metric];
  samples.values.push_back(value);
  samples.source = source;
}

std::map<std::string, Tracer::Samples> Tracer::samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

void Tracer::write_ndjson(const fs::path& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"op\": " << span.op << ", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns
        << ", \"dur_ns\": " << span.dur_ns << "}\n";
  }
}

void StageTotals::add_line(const std::string& line) {
  if (line.find("\"type\": \"trace_begin\"") != std::string::npos) {
    complete = true;
    return;
  }
  if (line.find("\"type\": \"span_end\"") == std::string::npos) return;
  const std::string key = "\"path\": \"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return;
  const std::size_t begin = at + key.size();
  const std::string path = line.substr(begin, line.find('"', begin) - begin);
  ++span_ends;
  const std::size_t counters = line.find("\"counters\": ");
  const auto count = [&](const char* name) {
    return counters == std::string::npos ? 0 : field(line, name, counters);
  };
  if (path.find('/') == std::string::npos) {
    stage_ms[path] += static_cast<double>(field(line, "dur_ns")) / 1e6;
    simulations += count("simulations");
  }
  if (path == "route_anonymity") filters_kept += count("filters_kept");
  if (path == "route_anonymity/noise_pass") {
    filters_added += count("filters_added");
  }
  if (path == "route_equivalence") {
    equivalence_iterations += count("iterations");
  }
  if (path == "route_equivalence/iteration") {
    fib_entries_scanned += count("fib_entries_scanned");
  }
}

void sample_stage_totals(Tracer& tracer, const StageTotals& totals,
                         bool with_simulations) {
  for (const char* stage : kStages) {
    const auto it = totals.stage_ms.find(stage);
    tracer.sample(std::string("core.") + stage + "_ms",
                  it == totals.stage_ms.end() ? 0.0 : it->second);
  }
  if (with_simulations) {
    tracer.sample("core.simulations_per_op",
                  static_cast<double>(totals.simulations));
  }
  if (totals.filters_added > 0) {
    tracer.sample("core.anonymity_filters_kept_share",
                  static_cast<double>(totals.filters_kept) /
                      static_cast<double>(totals.filters_added));
  }
  tracer.sample("core.equivalence_iterations_per_op",
                static_cast<double>(totals.equivalence_iterations));
  tracer.sample("core.fib_entries_scanned_per_op",
                static_cast<double>(totals.fib_entries_scanned));
}

TracedPipeline traced_pipeline(const confmask::ConfigSet& original,
                               const confmask::ConfMaskOptions& options) {
  TracedPipeline out;
  std::ostringstream lines;
  {
    confmask::PipelineTrace::Options trace_options;
    trace_options.trace_sink = &lines;
    confmask::PipelineTrace trace(trace_options);
    const auto pool_before = confmask::ThreadPool::shared().stats();
    const auto start = Clock::now();
    out.run = confmask::run_pipeline_guarded(original, options);
    out.pool_busy_share = busy_share(
        pool_before, confmask::ThreadPool::shared().stats(),
        Clock::now() - start);
  }
  std::istringstream in(lines.str());
  for (std::string line; std::getline(in, line);) out.stages.add_line(line);
  return out;
}

void add_filter_edit(confmask::ConfigSet& configs, std::uint64_t pick,
                     int edit) {
  std::vector<confmask::RouterConfig*> igp_routers;
  for (auto& router : configs.routers) {
    if ((router.ospf || router.rip) && !router.interfaces.empty()) {
      igp_routers.push_back(&router);
    }
  }
  if (igp_routers.empty()) return;
  confmask::RouterConfig& router = *igp_routers[pick % igp_routers.size()];
  confmask::PrefixList list;
  list.name = "BENCH-EDIT-" + std::to_string(edit);
  // Each edit denies its own /24 of 10.224.0.0/11 (8192 of them), a block
  // no network generator assigns to an interface.
  list.add_deny(confmask::Ipv4Prefix{
      confmask::Ipv4Address{
          10, static_cast<std::uint8_t>(224 + ((edit >> 8) & 31)),
          static_cast<std::uint8_t>(edit & 0xFF), 0},
      24});
  list.add_permit_all();
  router.prefix_lists.push_back(std::move(list));
  auto& lists = router.ospf ? router.ospf->distribute_lists
                            : router.rip->distribute_lists;
  lists.push_back(confmask::DistributeList{"BENCH-EDIT-" + std::to_string(edit),
                                           router.interfaces.front().name});
}

void probe_routing(Tracer& tracer, std::uint64_t op,
                   const confmask::ConfigSet& original) {
  const std::uint64_t root = tracer.next_id();
  const auto root_start = Clock::now();
  const auto call = [&](const char* name, const char* metric, auto&& body) {
    return traced_call(&tracer, op, root, name, metric, "direct", body);
  };
  const confmask::Topology topology =
      call("routing.Topology::build", "routing.topology_build_ms",
           [&] { return confmask::Topology::build(original); });
  {
    const auto sim = call("routing.Simulation", "routing.fresh_sim_ms", [&] {
      return std::make_unique<confmask::Simulation>(original);
    });
    (void)call("routing.extract_data_plane", "routing.dataplane_ms",
               [&] { return sim->extract_data_plane(); });
  }
  call("graph.k_degree_anonymize", "graph.k_degree_ms", [&] {
    confmask::Rng rng(op + 1);
    try {
      (void)confmask::k_degree_anonymize(topology.router_graph(), 6, rng);
    } catch (const confmask::KDegreeError&) {
      // The time to an infeasibility verdict is still the layer's cost.
    }
  });
  tracer.span(op, root, 0, "probe", root_start,
              static_cast<std::uint64_t>(ms_between(root_start, Clock::now()) *
                                         1e6));
}

LayerProbe::LayerProbe(const fs::path& scratch) {
  fs::create_directories(scratch);
  journal_ = std::make_unique<confmask::JobJournal>(scratch /
                                                    "probe-journal.ndjson");
  cache_ = std::make_unique<confmask::ArtifactCache>(scratch / "probe-cache");
}

void LayerProbe::run(Tracer& tracer, const ProbeInput& input) {
  const std::uint64_t root = tracer.next_id();
  const auto root_start = Clock::now();
  const std::uint64_t op = input.op;
  const bool resubmit = !input.diff_text.empty();
  const auto call = [&](const char* name, const char* metric, auto&& body) {
    return traced_call(&tracer, op, root, name, metric, "direct", body);
  };

  confmask::ConfigSet configs = call(
      "config.parse_config_set", "config.parse_bundle_ms",
      [&] { return confmask::parse_config_set(input.original_text); });
  if (resubmit) {
    configs = call("config.apply_bundle_diff", "config.apply_diff_ms", [&] {
      return confmask::apply_bundle_diff(configs, input.diff_text);
    });
  }
  const std::string canonical =
      call("config.canonical_config_set_text", "config.canonical_text_ms",
           [&] { return confmask::canonical_config_set_text(configs); });

  // A key unique to this probe, so the store really publishes.
  const confmask::ConfMaskOptions options = paper_options(op + 1);
  const confmask::RetryPolicy policy;
  const confmask::CacheKey key = call(
      "service.compute_cache_key", "service.cache_key_ms", [&] {
        return confmask::compute_cache_key(
            canonical, options, policy,
            confmask::EquivalenceStrategy::kConfMask);
      });
  confmask::JobRequest request;
  request.configs = configs;
  request.options = options;
  if (!call("service.journal_append_submit", "service.journal_append_ms",
            [&] { return journal_->append_submit(op, request, key); })) {
    throw std::runtime_error("scratch journal append failed");
  }
  confmask::CacheArtifacts artifacts;
  artifacts.anonymized_configs = input.anonymized_text;
  artifacts.original_configs = canonical;
  artifacts.diagnostics_json = input.diagnostics;
  // A hit publishes nothing, so its store is timed as a span only.
  if (call("service.cache_store", resubmit ? "service.cache_store_ms" : "",
           [&] { return cache_->store(key, artifacts); }) ==
      confmask::StoreResult::kIoError) {
    throw std::runtime_error("scratch cache store failed");
  }
  if (!call("service.cache_lookup", "service.cache_lookup_ms",
            [&] { return cache_->lookup(key); })) {
    throw std::runtime_error("scratch cache lost a stored entry");
  }
  tracer.span(op, root, 0, "probe", root_start,
              static_cast<std::uint64_t>(ms_between(root_start, Clock::now()) *
                                         1e6));
}

}  // namespace perfbench
