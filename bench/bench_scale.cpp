// Scale sweep of the simulation core on the netgen scale families
// (10²–10⁴ routers): topology build, fresh simulation, incremental vs
// full re-simulation after a filter edit, and the guarded ConfMask
// pipeline (the path confmask_cli and confmaskd run) on the sizes it can
// afford. Each pipeline point records whether the run verified (a
// fail-closed run is timed too, but it produced no anonymization), how
// many attempts it took, the k_R it was asked for and the k_R its final
// attempt used (the fallback ladder may relax it), its per-phase span
// times (DESIGN.md §9), and the process's peak RSS during the run: free
// heap pages are returned and the peak mark (VmHWM) is reset through
// /proc/self/clear_refs before each point, and a note is printed when the
// kernel refuses, in which case the figure is the peak so far. It also
// records the run's work, the trace's deterministic half nested as an
// object (PipelineTrace::write_metrics(false): span counters and
// histograms, no durations), which is the same for a given seed at any --jobs.
//
//   bench_scale [--max-routers N] [--pipeline-max N] [--jobs N]
//               [--families LIST] [--out FILE]
//
// Writes BENCH_scale.json (schema confmask.bench-scale/2). Sizes above the
// caps are skipped and logged, never silently dropped: --pipeline-max
// (default 316) bounds the full anonymization pipeline. Two gates read the
// file: bench/scale_work_gate.py compares every pipeline point's work
// exactly with bench/BENCH_scale.work.json, and bench/scale_ab.py times
// fresh simulation against another build of this program on the same
// machine.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/filters.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"
#include "src/testing/differential.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace confmask;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--max-routers N] [--pipeline-max N] [--jobs N]"
               " [--families LIST] [--out FILE]\n",
               argv0);
  std::exit(2);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Minimum wall time of `repetitions` runs of `body`.
template <typename Body>
double min_time(int repetitions, Body&& body) {
  double best = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// Resets the process's peak-RSS mark (VmHWM) to its current RSS; false
/// when the kernel refuses. Free heap pages go back to the kernel first, so
/// an earlier, larger point does not set the floor.
bool reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written;
}

/// VmHWM in MB, or -1 when /proc/self/status does not report it.
double peak_rss_mb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return -1.0;
  double mb = -1.0;
  char line[256];
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(file);
  return mb;
}

}  // namespace

int main(int argc, char** argv) {
  int max_routers = 10000;
  int pipeline_max = 316;
  unsigned jobs = 0;
  std::string out_path = "BENCH_scale.json";
  std::string families_arg = "waxman-ospf,waxman-rip,multi-as,pref-attach";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--max-routers") {
      max_routers = std::atoi(value());
    } else if (arg == "--pipeline-max") {
      pipeline_max = std::atoi(value());
    } else if (arg == "--jobs") {
      jobs = static_cast<unsigned>(std::atoi(value()));
    } else if (arg == "--families") {
      families_arg = value();
    } else if (arg == "--out") {
      out_path = value();
    } else {
      usage(argv[0]);
    }
  }
  if (max_routers < 2) usage(argv[0]);
  if (jobs > 0) ThreadPool::configure(jobs);

  struct FamilySpec {
    ScaleFamily family;
    const char* name;
  };
  const FamilySpec all_families[] = {
      {ScaleFamily::kWaxman, "waxman-ospf"},
      {ScaleFamily::kWaxmanRip, "waxman-rip"},
      {ScaleFamily::kMultiAs, "multi-as"},
      {ScaleFamily::kPreferentialAttachment, "pref-attach"},
  };
  std::vector<FamilySpec> families;
  for (const auto& spec : all_families) {
    if (families_arg.find(spec.name) != std::string::npos) {
      families.push_back(spec);
    }
  }
  if (families.empty()) usage(argv[0]);

  const int sizes[] = {100, 316, 1000, 3162, 10000};

  bench::header("Simulation core and pipeline scale sweep",
                "simulation is the pipeline's dominant cost (section 5.4); "
                "every pipeline point must verify at the requested k_R");
  std::printf("jobs=%u hardware_concurrency=%u max_routers=%d "
              "pipeline_max=%d\n\n",
              ThreadPool::shared().workers(),
              std::thread::hardware_concurrency(), max_routers, pipeline_max);
  std::printf(
      "%-12s %6s %6s %6s | %8s %8s | %8s %8s %7s | %8s %3s %3s %3s %7s\n",
      "family", "R", "hosts", "links", "topo (s)", "flat (s)", "inc (s)",
      "full (s)", "inc/fl", "pipe (s)", "ok", "att", "kR", "rss(MB)");

  const int k_r_requested = bench::default_options().k_r;
  JsonWriter json(JsonWriter::Layout::kLines);
  json.string("schema", "confmask.bench-scale/2")
      .number_u64("jobs", ThreadPool::shared().workers())
      .number_u64("hardware_concurrency", std::thread::hardware_concurrency())
      .number("max_routers", max_routers)
      .number("pipeline_max_routers", pipeline_max)
      .array("sweep", JsonWriter::Layout::kLines);
  bool rss_note_printed = false;

  for (const auto& spec : families) {
    for (const int routers : sizes) {
      if (routers > max_routers) {
        std::printf("%-12s %6d  -- skipped (--max-routers %d)\n", spec.name,
                    routers, max_routers);
        continue;
      }
      const std::uint64_t seed = 0x5CA1Eull + static_cast<std::uint64_t>(
                                                  routers);
      ConfigSet configs = make_scale_network(spec.family, routers, seed);
      decorate_scale_network(configs, seed);
      const int repetitions = routers <= 1000 ? 3 : 1;

      const double topo_s =
          min_time(repetitions, [&] { Topology::build(configs); });
      const Topology topo = Topology::build(configs);
      const auto links = topo.links().size();
      const int hosts = topo.host_count();

      const double flat_s =
          min_time(repetitions, [&] { Simulation sim(configs); });
      const Simulation sim(configs);

      // Incremental vs full re-simulation after one route-filter edit.
      ConfigSet edited = configs;
      SimulationDelta delta;
      FilterEditor editor(edited, topo);
      for (int r = 0; r < topo.router_count() && delta.empty(); ++r) {
        const auto& incident = topo.links_of(r);
        if (incident.empty()) continue;
        const Ipv4Prefix target =
            edited.hosts.front().prefix();
        if (editor.add(r, incident.front(), target)) {
          delta.record(r, target);
        }
      }
      double incremental_s = -1.0;
      double full_s = -1.0;
      if (!delta.empty()) {
        incremental_s = min_time(
            repetitions, [&] { Simulation inc(edited, sim, delta); });
        full_s = min_time(repetitions, [&] { Simulation fresh(edited); });
      }
      json.object()
          .string("family", spec.name)
          .number("routers", routers)
          .number("hosts", hosts)
          .number_u64("links", links)
          .number("repetitions", repetitions)
          .fixed("topology_build_s", topo_s)
          .fixed("fresh_sim_s", flat_s);
      // A measurement that was not taken is null.
      const auto fixed_or_null = [&json](std::string_view key, double value) {
        value >= 0 ? json.fixed(key, value) : json.null(key);
      };
      fixed_or_null("incremental_sim_s", incremental_s);
      fixed_or_null("full_resim_s", full_s);

      // Guarded pipeline with per-phase span metrics, on affordable sizes.
      double pipeline_s = -1.0;
      bool pipeline_verified = false;
      int pipeline_attempts = 0;
      int k_r_used = 0;
      double pipeline_rss_mb = -1.0;
      if (routers <= pipeline_max) {
        if (!reset_peak_rss() && !rss_note_printed) {
          std::printf("note: the kernel refused to reset VmHWM; "
                      "pipeline_peak_rss_mb is the process peak so far\n");
          rss_note_printed = true;
        }
        PipelineTrace trace;
        const auto start = std::chrono::steady_clock::now();
        const auto outcome =
            run_pipeline_guarded(configs, bench::default_options());
        pipeline_s = seconds_since(start);
        pipeline_rss_mb = peak_rss_mb();
        pipeline_verified = outcome.ok();
        pipeline_attempts = outcome.diagnostics.attempts;
        k_r_used = outcome.effective_options.k_r;
        json.fixed("pipeline_s", pipeline_s)
            .boolean("pipeline_verified", pipeline_verified)
            .number("pipeline_attempts", pipeline_attempts)
            .number("pipeline_k_r_requested", k_r_requested)
            .number("pipeline_k_r_used", k_r_used);
        fixed_or_null("pipeline_peak_rss_mb", pipeline_rss_mb);
        bench::write_phase_seconds(json, "pipeline_phases_s", trace.metrics());
        json.object("pipeline_work", JsonWriter::Layout::kLines);
        trace.write_metrics(json, /*include_timings=*/false);
        json.end();
      } else {
        std::printf("%-12s %6d  -- pipeline skipped (--pipeline-max %d)\n",
                    spec.name, routers, pipeline_max);
        for (const char* key :
             {"pipeline_s", "pipeline_verified", "pipeline_attempts",
              "pipeline_k_r_requested", "pipeline_k_r_used",
              "pipeline_peak_rss_mb", "pipeline_phases_s", "pipeline_work"}) {
          json.null(key);
        }
      }
      json.end();

      const bool pipeline_ran = pipeline_s >= 0;
      std::printf(
          "%-12s %6d %6d %6zu | %8.4f %8.4f | %8s %8s %7s | %8s %3s %3s %3s "
          "%7s\n",
          spec.name, routers, hosts, links, topo_s, flat_s,
          incremental_s >= 0
              ? std::to_string(incremental_s).substr(0, 8).c_str()
              : "--",
          full_s >= 0 ? std::to_string(full_s).substr(0, 8).c_str() : "--",
          (incremental_s > 0 && full_s > 0)
              ? (std::to_string(full_s / incremental_s).substr(0, 5) + "x")
                    .c_str()
              : "--",
          pipeline_ran ? std::to_string(pipeline_s).substr(0, 8).c_str()
                       : "--",
          pipeline_ran ? (pipeline_verified ? "yes" : "NO") : "--",
          pipeline_ran ? std::to_string(pipeline_attempts).c_str() : "--",
          pipeline_ran ? std::to_string(k_r_used).c_str() : "--",
          pipeline_rss_mb >= 0
              ? std::to_string(std::lround(pipeline_rss_mb)).c_str()
              : "--");
      bench::csv("scale," + std::string(spec.name) + "," +
                 std::to_string(routers) + "," + std::to_string(flat_s));
    }
  }

  if (!(std::ofstream(out_path) << std::move(json).str())) {
    std::fprintf(stderr, "failed to open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
