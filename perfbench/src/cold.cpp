// cold-1k: one in-process caller, closed loop. Each op parses a canonical
// bundle, runs run_pipeline_guarded at paper defaults and emits the
// anonymized bundle. Inputs come from all four make_scale_network
// families, router counts spread log-uniformly over 500–1500.
//
// The input pool is fixed and the seed orders it: every cycle runs the
// eight pool inputs in a fresh seeded order, and a window runs a fixed
// number of whole cycles. Each run therefore times the same multiset of
// ops. A pool drawn from the seed would not do: whether a waxman-ospf or
// multi-as input verifies is close to a coin flip per network, so
// verified_share would move by about ±0.12 from seed to seed.
#include <algorithm>
#include <optional>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/checks.hpp"
#include "perfbench/src/layers.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

using confmask::ScaleFamily;

constexpr ScaleFamily kFamilies[] = {
    ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
    ScaleFamily::kPreferentialAttachment};
constexpr int kMinRouters = 500;
constexpr int kMaxRouters = 1500;
/// The pool: two inputs per family, one from each half of the log-size
/// range.
constexpr std::size_t kPool = 8;
/// Cycles per second of --seconds: 3 cycles (24 ops) at 10 s, which took
/// 11-13 s on the 4-vCPU VM this benchmark was written on, and puts
/// op_ms_tail (the (n-10)-th of n ops) at p58, above the median. A traced
/// run at 10 s runs 2 cycles untraced and 2 traced.
constexpr double kCyclesPerSecond = 0.3;
/// Distinct inputs the traced run also feeds to the direct layer calls.
constexpr std::size_t kProbes = 6;

struct PlanEntry {
  ScaleFamily family = ScaleFamily::kWaxman;
  int routers = 0;
  std::uint64_t network_seed = 0;
  std::uint64_t pipeline_seed = 0;
};

/// Size stratum j of 8 (log scale) goes to family j for j < 4 and to
/// family 7 - j otherwise, so every family gets one small and one large
/// network; router counts sit at the strata midpoints.
std::vector<PlanEntry> make_pool() {
  std::vector<PlanEntry> pool;
  const double span = std::log(static_cast<double>(kMaxRouters) / kMinRouters);
  for (std::size_t j = 0; j < kPool; ++j) {
    PlanEntry entry;
    entry.family = kFamilies[j < 4 ? j : kPool - 1 - j];
    entry.routers = static_cast<int>(std::lround(
        kMinRouters *
        std::exp((static_cast<double>(j) + 0.5) / kPool * span)));
    entry.network_seed = 1000 + j;
    entry.pipeline_seed = 1 + j;
    pool.push_back(entry);
  }
  return pool;
}

/// The pool in a fresh seeded order for every cycle.
class OpOrder {
 public:
  explicit OpOrder(std::uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 17) {}
  std::vector<std::size_t> next_cycle() {
    std::vector<std::size_t> order(kPool);
    for (std::size_t i = 0; i < kPool; ++i) order[i] = i;
    for (std::size_t i = kPool; i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }
    return order;
  }

 private:
  confmask::Rng rng_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

fs::path input_path(const fs::path& dir, std::size_t index) {
  return dir / ("in-" + std::to_string(index) + ".cfg");
}

/// One op's outcome, kept small: the process holds only the current op's
/// bundle; returned bundles go to disk for the checks.
struct ColdOp {
  std::size_t input = 0;
  std::uint64_t id = 0;
  bool ok = false;
  int k_r = 6;
  fs::path output;
};

class ColdRunner {
 public:
  explicit ColdRunner(const RunConfig& config)
      : plan_(make_pool()),
        order_(config.seed),
        inputs_(config.work_dir / "inputs"),
        outputs_(config.work_dir / "outputs") {
    fs::create_directories(inputs_);
    fs::create_directories(outputs_);
  }

  /// Generates every planned input and writes it to disk; seconds taken.
  double generate() const {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      const PlanEntry& entry = plan_[i];
      write_file(input_path(inputs_, i),
                 confmask::canonical_config_set_text(confmask::make_scale_network(
                     entry.family, entry.routers, entry.network_seed)));
    }
    return ms_between(start, Clock::now()) / 1e3;
  }

  /// Untimed: one pipeline run on the largest pool input, so the heap has
  /// grown before the first timed op (the first cycle otherwise runs
  /// 10-20% slower).
  void warm_up() const {
    std::size_t largest = 0;
    for (std::size_t i = 1; i < plan_.size(); ++i) {
      if (plan_[i].routers > plan_[largest].routers) largest = i;
    }
    (void)confmask::run_pipeline_guarded(
        confmask::parse_config_set(read_file(input_path(inputs_, largest))),
        paper_options(plan_[largest].pipeline_seed));
  }

  /// Runs `cycles` whole cycles of the pool.
  Window window(std::size_t cycles, Tracer* tracer) {
    Window window;
    window.rss_reset = reset_hwm(0);
    const double cpu_before = process_cpu_ms(0);
    const auto start = Clock::now();
    std::vector<std::size_t> cycle;
    while (!cycle.empty() || cycles > 0) {
      if (cycle.empty()) {
        --cycles;
        cycle = order_.next_cycle();
        std::reverse(cycle.begin(), cycle.end());
      }
      ColdOp op;
      op.id = next_++;
      op.input = cycle.back();
      cycle.pop_back();
      const std::string text = read_file(input_path(inputs_, op.input));
      const confmask::ConfMaskOptions options =
          paper_options(plan_[op.input].pipeline_seed);
      const std::uint64_t root = tracer != nullptr ? tracer->next_id() : 0;
      const auto op_start = Clock::now();
      const confmask::ConfigSet original = traced_call(
          tracer, op.id, root, "config.parse_config_set",
          "config.parse_bundle_ms", "op",
          [&] { return confmask::parse_config_set(text); });
      std::optional<confmask::PipelineResult> result;
      if (tracer == nullptr) {
        auto guarded = confmask::run_pipeline_guarded(original, options);
        op.k_r = guarded.effective_options.k_r;
        result = std::move(guarded.result);
      } else {
        const auto call_start = Clock::now();
        TracedPipeline traced = traced_pipeline(original, options);
        tracer->timed(op.id, root, "core.run_pipeline_guarded", call_start,
                      Clock::now());
        for (const auto& [stage, ms] : traced.stages.stage_ms) {
          tracer->span(op.id, tracer->next_id(), root, "core." + stage,
                       call_start, static_cast<std::uint64_t>(ms * 1e6));
        }
        sample_stage_totals(*tracer, traced.stages, true);
        tracer->sample("core.attempts_per_op",
                       traced.run.diagnostics.attempts);
        tracer->sample("util.pool_busy_share", traced.pool_busy_share);
        op.k_r = traced.run.effective_options.k_r;
        result = std::move(traced.run.result);
      }
      std::string emitted;
      if (result) {
        emitted = traced_call(tracer, op.id, root,
                              "config.canonical_config_set_text",
                              "config.canonical_text_ms", "op", [&] {
                                return confmask::canonical_config_set_text(
                                    result->anonymized);
                              });
      }
      const auto op_end = Clock::now();
      window.op_ms.push_back(ms_between(op_start, op_end));
      if (tracer != nullptr) {
        tracer->span(op.id, root, 0, "op", op_start,
                     static_cast<std::uint64_t>(
                         ms_between(op_start, op_end) * 1e6));
        if (probed_.size() < kProbes &&
            std::find(probed_.begin(), probed_.end(), op.input) ==
                probed_.end()) {
          probed_.push_back(op.input);
          probe_ops_.push_back(op.id);
        }
      }
      op.ok = result.has_value();
      if (op.ok) {
        op.output = outputs_ / ("out-" + std::to_string(op.id) + ".cfg");
        write_file(op.output, emitted);
      }
      window.part_s = {ms_between(start, op_end) / 1e3};
      ops_.push_back(std::move(op));
    }
    window.cpu_ms = process_cpu_ms(0) - cpu_before;
    window.peak_rss_mb = process_hwm_mb(0);
    return window;
  }

  /// Independent checks of ops [first, first + count), after the
  /// windows. Ops of one input that returned byte-identical bundles share
  /// one check; distinct artifacts are checked on four threads.
  std::vector<bool> check(std::size_t first, std::size_t count) const {
    std::vector<std::pair<std::size_t, std::string>> distinct;
    std::vector<std::size_t> artifact_of(count, SIZE_MAX);
    for (std::size_t i = 0; i < count; ++i) {
      const ColdOp& op = ops_[first + i];
      if (!op.ok) continue;
      std::pair<std::size_t, std::string> artifact{op.input,
                                                   read_file(op.output)};
      const auto it = std::find(distinct.begin(), distinct.end(), artifact);
      artifact_of[i] = static_cast<std::size_t>(it - distinct.begin());
      if (it == distinct.end()) distinct.push_back(std::move(artifact));
    }
    const std::vector<bool> passed =
        check_all(distinct.size(), [&](std::size_t i) {
          const auto& [input, text] = distinct[i];
          const ColdOp* op = nullptr;
          for (std::size_t j = 0; j < count && op == nullptr; ++j) {
            if (artifact_of[j] == i) op = &ops_[first + j];
          }
          return check_artifact(confmask::parse_config_set(
                                    read_file(input_path(inputs_, input))),
                                confmask::parse_config_set(text), op->k_r)
              .ok();
        });
    std::vector<bool> verified(count, false);
    for (std::size_t i = 0; i < count; ++i) {
      verified[i] = artifact_of[i] != SIZE_MAX && passed[artifact_of[i]];
    }
    return verified;
  }

  [[nodiscard]] std::size_t ops() const { return ops_.size(); }

  /// One report line per pool input over the first `latencies.size()`
  /// ops: size, ops run, median latency, returned and verified counts.
  [[nodiscard]] std::vector<std::string> per_input(
      const std::vector<double>& latencies,
      const std::vector<bool>& verdicts) const {
    std::vector<std::string> lines;
    for (std::size_t input = 0; input < plan_.size(); ++input) {
      std::vector<double> ms;
      std::size_t returned = 0;
      std::size_t verified = 0;
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        if (ops_[i].input != input) continue;
        ms.push_back(latencies[i]);
        returned += ops_[i].ok ? 1 : 0;
        verified += verdicts[i] ? 1 : 0;
      }
      std::sort(ms.begin(), ms.end());
      char line[160];
      std::snprintf(line, sizeof line,
                    "input %zu %s/%d: %zu ops, median %.1f ms, returned %zu, "
                    "verified %zu",
                    input, confmask::scale_family_name(plan_[input].family),
                    plan_[input].routers, ms.size(),
                    ms.empty() ? 0.0 : ms[ms.size() / 2], returned, verified);
      lines.emplace_back(line);
    }
    return lines;
  }

  /// Ops in [first, first + verdicts.size()) that returned configs the
  /// checks rejected.
  [[nodiscard]] std::size_t returned_unverified(
      std::size_t first, const std::vector<bool>& verdicts) const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      count += ops_[first + i].ok && !verdicts[i] ? 1 : 0;
    }
    return count;
  }

  /// Direct routing and graph calls on the traced window's first
  /// distinct inputs. cold-1k bypasses the service, so the service.*
  /// metrics stay n/a here.
  void probe(Tracer& tracer) const {
    for (const std::uint64_t id : probe_ops_) {
      probe_routing(tracer, id,
                    confmask::parse_config_set(
                        read_file(input_path(inputs_, ops_[id].input))));
    }
  }

 private:
  std::vector<PlanEntry> plan_;
  OpOrder order_;
  fs::path inputs_;
  fs::path outputs_;
  std::uint64_t next_ = 0;
  std::vector<ColdOp> ops_;
  std::vector<std::size_t> probed_;
  std::vector<std::uint64_t> probe_ops_;
};

}  // namespace

WorkloadResult run_cold(const RunConfig& config) {
  WorkloadResult result;
  ColdRunner runner(config);
  for (int i = 0; i < kSetupRepetitions; ++i) {
    result.setup_s.push_back(runner.generate());
  }
  std::string pool = "set-up: inputs generated " + std::to_string(kPool) + ":";
  for (const PlanEntry& entry : make_pool()) {
    pool += std::string(" ") + confmask::scale_family_name(entry.family) +
            "/" + std::to_string(entry.routers);
  }
  result.facts.push_back(pool);
  result.storage_path = (config.work_dir / "inputs").string();
  runner.warm_up();

  // A traced run splits the window: untraced half, then traced half.
  const std::size_t cycles = ops_for(
      config.trace ? config.seconds / 2 : config.seconds, kCyclesPerSecond);
  result.untraced = runner.window(cycles, nullptr);
  const std::size_t untraced_ops = runner.ops();
  if (config.trace) {
    result.tracer = std::make_unique<Tracer>();
    result.traced = runner.window(cycles, result.tracer.get());
  }
  result.untraced.verified = runner.check(0, untraced_ops);
  for (std::string& line :
       runner.per_input(result.untraced.op_ms, result.untraced.verified)) {
    result.facts.push_back(std::move(line));
  }
  result.returned_unverified =
      runner.returned_unverified(0, result.untraced.verified);
  if (result.traced) {
    result.traced->verified =
        runner.check(untraced_ops, runner.ops() - untraced_ops);
    result.returned_unverified +=
        runner.returned_unverified(untraced_ops, result.traced->verified);
    runner.probe(*result.tracer);
  }
  return result;
}

}  // namespace perfbench
