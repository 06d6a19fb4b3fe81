// Performance trajectory of the pipeline: the full ConfMask run on all
// eight evaluation networks in two modes —
//   serial   : 1 worker;
//   parallel : default worker count.
// Both modes produce bit-identical anonymized configs
// (tests/test_determinism.cpp proves it); this bench measures time and
// fails (exit 1) when a run does not verify.
//
// Besides the usual table + CSV lines it writes BENCH_pipeline.json in the
// current directory so CI can archive a machine-readable perf trajectory
// across PRs (bench/BENCH_pipeline.json is a checked-in Release baseline).
// Each mode records the min and the median of its repetitions, its
// simulation jobs, and the per-phase timings (PipelineTrace top-level
// spans) of its min-time repetition.
#include <algorithm>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/util/thread_pool.hpp"

namespace {

struct ModeResult {
  double min_s = 0.0;
  double median_s = 0.0;
  std::uint64_t simulations = 0;  // simulation jobs (§5.4 cost unit)
  bool equivalent = true;
  /// The span aggregates of the min-time repetition.
  std::vector<confmask::SpanMetrics> spans;
};

ModeResult run_mode(const confmask::ConfigSet& configs, unsigned workers,
                    int repetitions) {
  using namespace confmask;
  ThreadPool::configure(workers);
  ModeResult result;
  std::vector<double> seconds;
  for (int rep = 0; rep < repetitions; ++rep) {
    // One trace per repetition (no NDJSON sink — aggregation only), so the
    // min-time repetition's per-phase breakdown lands in the JSON.
    PipelineTrace trace;
    const auto outcome = run_confmask(configs, bench::default_options());
    if (seconds.empty() || outcome.stats.seconds < result.min_s) {
      result.min_s = outcome.stats.seconds;
      result.spans = trace.metrics();
    }
    seconds.push_back(outcome.stats.seconds);
    result.simulations = outcome.stats.simulations;
    result.equivalent = result.equivalent && outcome.functionally_equivalent;
  }
  std::sort(seconds.begin(), seconds.end());
  result.median_s = seconds[seconds.size() / 2];
  return result;
}

void write_mode(confmask::JsonWriter& json, std::string_view key,
                const ModeResult& mode) {
  json.object(key)
      .fixed("min_s", mode.min_s)
      .fixed("median_s", mode.median_s)
      .number_u64("simulations", mode.simulations);
  confmask::bench::write_phase_seconds(json, "phases_s", mode.spans);
  json.end();
}

}  // namespace

int main() {
  using namespace confmask;
  const unsigned jobs = ThreadPool::default_workers();
  const unsigned cores = std::thread::hardware_concurrency();
  bench::header("Pipeline speed: serial vs parallel",
                "identical outputs (target >=2x on the largest network with "
                ">=4 cores)");
  std::printf("jobs=%u hardware_concurrency=%u\n\n", jobs, cores);
  std::printf("%-3s %-11s | %9s %9s %9s %9s | %8s | %5s\n", "ID", "Network",
              "ser min", "ser med", "par min", "par med", "par/ser", "sims");

  const int repetitions = 5;
  JsonWriter json(JsonWriter::Layout::kLines);
  json.number_u64("jobs", jobs)
      .number_u64("hardware_concurrency", cores)
      .number("repetitions", repetitions)
      .array("networks", JsonWriter::Layout::kLines);
  bool all_equivalent = true;
  for (const auto& network : bench::networks()) {
    const auto serial = run_mode(network.configs, 1, repetitions);
    const auto parallel = run_mode(network.configs, 0, repetitions);
    const double speedup = serial.median_s / parallel.median_s;
    const bool equivalent = serial.equivalent && parallel.equivalent;
    all_equivalent = all_equivalent && equivalent;
    std::printf("%-3s %-11s | %9.4f %9.4f %9.4f %9.4f | %7.2fx | %5llu%s\n",
                network.id.c_str(), network.name.c_str(), serial.min_s,
                serial.median_s, parallel.min_s, parallel.median_s, speedup,
                static_cast<unsigned long long>(parallel.simulations),
                equivalent ? "" : "  [FE FAILED]");
    bench::csv("perf_pipeline," + network.id + "," +
               std::to_string(serial.median_s) + "," +
               std::to_string(parallel.median_s) + "," +
               std::to_string(speedup));
    json.object()
        .string("id", network.id)
        .string("name", network.name)
        .fixed("speedup_parallel", speedup)
        .boolean("functionally_equivalent", equivalent);
    write_mode(json, "serial", serial);
    write_mode(json, "parallel", parallel);
    json.end();
  }

  if (!(std::ofstream("BENCH_pipeline.json") << std::move(json).str())) {
    std::printf("\nfailed to open BENCH_pipeline.json for writing\n");
    return 1;
  }
  std::printf("\nwrote BENCH_pipeline.json\n");
  return all_equivalent ? 0 : 1;
}
