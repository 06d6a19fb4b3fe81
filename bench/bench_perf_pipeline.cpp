// Performance trajectory of the simulation engine: the full ConfMask
// pipeline on all eight evaluation networks in three modes —
//   serial    : 1 worker, incremental re-simulation OFF (the from-scratch
//               rebuild sequence the original implementation used);
//   parallel  : default worker count, incremental OFF;
//   par+inc   : default worker count, incremental re-simulation ON (the
//               production default).
// All three modes produce bit-identical anonymized configs and data planes
// (tests/test_determinism.cpp proves it); this bench only measures time.
//
// Besides the usual table + CSV lines it writes BENCH_pipeline.json in the
// current directory so CI can archive a machine-readable perf trajectory
// across PRs. Timings are min-of-N to shrug off scheduler noise. Each
// network entry also carries per-phase timings (PipelineTrace top-level
// spans, from the min-time repetition) for the serial and par+inc modes.
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/thread_pool.hpp"

namespace {

struct ModeResult {
  double seconds = 1e30;          // min over repetitions
  std::uint64_t simulations = 0;  // simulation jobs (§5.4 cost unit)
  bool equivalent = true;
  /// The span aggregates of the min-time repetition.
  std::vector<confmask::SpanMetrics> spans;
};

ModeResult run_mode(const confmask::ConfigSet& configs, unsigned workers,
                    bool incremental, int repetitions) {
  using namespace confmask;
  ThreadPool::configure(workers);
  ModeResult result;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto options = bench::default_options();
    options.incremental_simulation = incremental;
    // One trace per repetition (no NDJSON sink — aggregation only), so the
    // min-time repetition's per-phase breakdown lands in the JSON.
    PipelineTrace trace;
    const auto outcome = run_confmask(configs, options);
    if (outcome.stats.seconds < result.seconds) {
      result.seconds = outcome.stats.seconds;
      result.spans = trace.metrics();
    }
    result.simulations = outcome.stats.simulations;
    result.equivalent = result.equivalent && outcome.functionally_equivalent;
  }
  return result;
}

}  // namespace

int main() {
  using namespace confmask;
  const unsigned jobs = ThreadPool::default_workers();
  const unsigned cores = std::thread::hardware_concurrency();
  bench::header("Pipeline speed: serial vs parallel vs parallel+incremental",
                "identical outputs, fewer rebuilt FIBs (target >=2x on the "
                "largest network with >=4 cores)");
  std::printf("jobs=%u hardware_concurrency=%u\n\n", jobs, cores);
  std::printf("%-3s %-11s | %9s %9s %9s | %8s %8s | %5s %5s\n", "ID",
              "Network", "ser (s)", "par (s)", "inc (s)", "par/ser",
              "inc/ser", "simS", "simI");

  const int repetitions = 3;
  JsonWriter json(JsonWriter::Layout::kLines);
  json.number_u64("jobs", jobs)
      .number_u64("hardware_concurrency", cores)
      .number("repetitions", repetitions)
      .array("networks", JsonWriter::Layout::kLines);
  bool all_equivalent = true;
  for (const auto& network : bench::networks()) {
    const auto serial = run_mode(network.configs, 1, false, repetitions);
    const auto parallel = run_mode(network.configs, 0, false, repetitions);
    const auto par_inc = run_mode(network.configs, 0, true, repetitions);
    const double speedup_par = serial.seconds / parallel.seconds;
    const double speedup_inc = serial.seconds / par_inc.seconds;
    const bool equivalent =
        serial.equivalent && parallel.equivalent && par_inc.equivalent;
    all_equivalent = all_equivalent && equivalent;
    std::printf("%-3s %-11s | %9.4f %9.4f %9.4f | %7.2fx %7.2fx | %5llu "
                "%5llu%s\n",
                network.id.c_str(), network.name.c_str(), serial.seconds,
                parallel.seconds, par_inc.seconds, speedup_par, speedup_inc,
                static_cast<unsigned long long>(serial.simulations),
                static_cast<unsigned long long>(par_inc.simulations),
                equivalent ? "" : "  [FE FAILED]");
    bench::csv("perf_pipeline," + network.id + "," +
               std::to_string(serial.seconds) + "," +
               std::to_string(parallel.seconds) + "," +
               std::to_string(par_inc.seconds) + "," +
               std::to_string(speedup_inc));
    json.object()
        .string("id", network.id)
        .string("name", network.name)
        .fixed("serial_s", serial.seconds)
        .fixed("parallel_s", parallel.seconds)
        .fixed("parallel_incremental_s", par_inc.seconds)
        .fixed("speedup_parallel", speedup_par)
        .fixed("speedup_parallel_incremental", speedup_inc)
        .number_u64("simulations_serial", serial.simulations)
        .number_u64("simulations_incremental", par_inc.simulations)
        .boolean("functionally_equivalent", equivalent);
    bench::write_phase_seconds(json, "phases_serial_s", serial.spans);
    bench::write_phase_seconds(json, "phases_parallel_incremental_s",
                               par_inc.spans);
    json.end();
  }

  if (!(std::ofstream("BENCH_pipeline.json") << std::move(json).str())) {
    std::printf("\nfailed to open BENCH_pipeline.json for writing\n");
    return 1;
  }
  std::printf("\nwrote BENCH_pipeline.json\n");
  return all_equivalent ? 0 : 1;
}
