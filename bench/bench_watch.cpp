// Watch-mode latency: cold anonymization vs patched re-anonymization of a
// single-device filter edit, at the netgen scale points the pipeline
// affords (DESIGN.md §14).
//
//   bench_watch [--max-routers N] [--jobs N] [--min-speedup X]
//               [--out FILE]
//
// Per scale point: anonymize the base bundle once with watch capture (the
// daemon's publish path), apply a one-router prefix-list + distribute-list
// edit, then time the edited bundle cold (no context) and patched (against
// the base context), min-of-3 each. The patched run must be byte-identical
// to the cold run — any divergence makes the exit status nonzero, so the
// benchmark doubles as a correctness gate. The table also shows whether
// the patched run replayed Algorithm 2 and how many real flows its gate
// walked rather than proved. --min-speedup X additionally fails the run
// when cold/patched at the LARGEST executed scale point is below X (CI
// passes 4.5; the ratio reads ~2–6x, median ~3.8x, at 316 routers on a
// shared 4-vCPU host, see ROADMAP.md item 4).
//
// Writes BENCH_watch.json (schema confmask.bench-watch/1).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/config/emit.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/topology.hpp"
#include "src/testing/differential.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace confmask;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--max-routers N] [--jobs N] [--min-speedup X]"
               " [--out FILE]\n",
               argv0);
  std::exit(2);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

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

using bench::json_number;

/// The canonical watch event: one router gains a fresh prefix list (one
/// deny + terminal permit-all) bound as an IGP distribute-list on its
/// first interface. Filter-only by construction. Returns false when no
/// router runs an IGP (never the case for the scale families).
bool apply_single_device_edit(ConfigSet& configs) {
  for (RouterConfig& router : configs.routers) {
    if ((!router.ospf && !router.rip) || router.interfaces.empty()) {
      continue;
    }
    PrefixList list;
    list.name = "WATCH-EDIT";
    list.add_deny(Ipv4Prefix{Ipv4Address{10, 200, 200, 0}, 24});
    list.add_permit_all();
    router.prefix_lists.push_back(std::move(list));
    auto& dls = router.ospf ? router.ospf->distribute_lists
                            : router.rip->distribute_lists;
    dls.push_back(DistributeList{"WATCH-EDIT", router.interfaces.front().name});
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  int max_routers = 316;
  unsigned jobs = 0;
  double min_speedup = 0.0;
  std::string out_path = "BENCH_watch.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--max-routers") {
      max_routers = std::atoi(value());
    } else if (arg == "--jobs") {
      jobs = static_cast<unsigned>(std::atoi(value()));
    } else if (arg == "--min-speedup") {
      min_speedup = std::atof(value());
    } else if (arg == "--out") {
      out_path = value();
    } else {
      usage(argv[0]);
    }
  }
  if (max_routers < 2) usage(argv[0]);
  if (jobs > 0) ThreadPool::configure(jobs);

  bench::header("Watch mode: patched vs cold re-anonymization",
                "single-device edit re-anonymized byte-identically, "
                "~2-6x (median ~3.8x) faster than a cold run at 316 "
                "routers (target >=4.5x, ROADMAP.md item 4)");
  std::printf("jobs=%u max_routers=%d min_speedup=%s\n\n",
              ThreadPool::shared().workers(), max_routers,
              min_speedup > 0 ? json_number(min_speedup).c_str() : "off");
  std::printf("%-12s %6s %6s | %9s %9s %9s | %8s %7s %6s %6s %6s\n",
              "family", "R", "hosts", "base (s)", "cold (s)", "patch (s)",
              "speedup", "stages", "replay", "walked", "bytes");

  const ConfMaskOptions options = bench::default_options();
  const RetryPolicy policy;
  const int sizes[] = {100, 316};

  bool all_bytes_equal = true;
  double gate_speedup = -1.0;
  int gate_routers = 0;
  std::string json =
      std::string("{\n  \"schema\": \"confmask.bench-watch/1\",\n") +
      "  \"jobs\": " + std::to_string(ThreadPool::shared().workers()) +
      ",\n  \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n  \"max_routers\": " + std::to_string(max_routers) +
      ",\n  \"min_speedup\": " + json_number(min_speedup) +
      ",\n  \"entries\": [";
  bool first = true;

  for (const int routers : sizes) {
    if (routers > max_routers) {
      std::printf("%-12s %6d  -- skipped (--max-routers %d)\n", "waxman-ospf",
                  routers, max_routers);
      continue;
    }
    // The retry ladder's attempt count is itself part of what a run costs:
    // a seed whose base network needs N attempts times N-1 full (ungrafted)
    // pipelines into BOTH flavours and blurs the patched/cold contrast. The
    // bench reports the steady-state watch cycle — the daemon's common case
    // of a network that anonymizes in one attempt — so probe network seeds
    // until base AND edited runs both complete on the first attempt.
    ConfigSet base;
    ConfigSet edited;
    PatchCapture capture;
    double base_s = -1.0;
    std::uint64_t seed = 0;
    bool have_base = false;
    for (int probe = 0; probe < 20 && !have_base; ++probe) {
      seed = 0x3A7C4ull + static_cast<std::uint64_t>(routers) +
             static_cast<std::uint64_t>(probe) * 0x9E3779B9ull;
      ConfigSet candidate =
          make_scale_network(ScaleFamily::kWaxman, routers, seed);
      decorate_scale_network(candidate, seed);
      candidate = canonicalize(std::move(candidate));

      // Publish path: one cold run with capture, context for the cycle.
      const auto start = std::chrono::steady_clock::now();
      const auto run = run_pipeline_guarded(candidate, options, policy,
                                            EquivalenceStrategy::kConfMask,
                                            nullptr, nullptr, &capture);
      base_s = seconds_since(start);
      if (!run.ok() || run.diagnostics.attempts != 1) continue;

      ConfigSet candidate_edited = candidate;
      if (!apply_single_device_edit(candidate_edited)) continue;
      candidate_edited = canonicalize(std::move(candidate_edited));
      const auto probe_cold = run_pipeline_guarded(
          candidate_edited, options, policy, EquivalenceStrategy::kConfMask,
          nullptr, nullptr, nullptr);
      if (!probe_cold.ok() || probe_cold.diagnostics.attempts != 1) continue;

      base = std::move(candidate);
      edited = std::move(candidate_edited);
      have_base = true;
    }
    if (!have_base) {
      std::fprintf(stderr,
                   "no single-attempt seed found at %d routers\n", routers);
      return 1;
    }
    const int hosts = static_cast<int>(base.hosts.size());
    const auto context = finish_capture(capture);
    if (context == nullptr) {
      std::fprintf(stderr, "no context captured at %d routers\n", routers);
      return 1;
    }

    const int repetitions = 3;
    GuardedPipelineResult cold;
    const double cold_s = min_time(repetitions, [&] {
      cold = run_pipeline_guarded(edited, options, policy,
                                  EquivalenceStrategy::kConfMask, nullptr,
                                  nullptr, nullptr);
    });
    GuardedPipelineResult patched;
    const double patched_s = min_time(repetitions, [&] {
      patched = run_pipeline_guarded(edited, options, policy,
                                     EquivalenceStrategy::kConfMask, nullptr,
                                     context.get(), nullptr);
    });
    // One traced run of each flavour for the per-phase breakdown, and the
    // real flows its verification gate walked.
    std::uint64_t walked = 0;
    const auto phase_json = [&](const PatchContext* base_ctx) {
      PipelineTrace trace;
      const auto run = run_pipeline_guarded(edited, options, policy,
                                            EquivalenceStrategy::kConfMask,
                                            nullptr, base_ctx, nullptr);
      (void)run;
      std::string out = "{";
      bool first_phase = true;
      for (const auto& span : trace.metrics()) {
        if (span.path.find('/') != std::string::npos) continue;
        out += std::string(first_phase ? "" : ", ") + "\"" + span.path +
               "\": " +
               json_number(static_cast<double>(span.total_ns) * 1e-9);
        first_phase = false;
        if (span.path == "verification") {
          const auto it = span.counters.find("real_flows_compared");
          walked = it == span.counters.end() ? 0 : it->second;
        }
      }
      return out + "}";
    };
    const std::string cold_phases = phase_json(nullptr);
    const std::string patched_phases = phase_json(context.get());

    if (!cold.ok() || !patched.ok()) {
      std::fprintf(stderr, "edited run failed at %d routers (cold=%d "
                           "patched=%d)\n",
                   routers, cold.ok() ? 1 : 0, patched.ok() ? 1 : 0);
      return 1;
    }
    const bool bytes_equal =
        canonical_config_set_text(cold.result->anonymized) ==
        canonical_config_set_text(patched.result->anonymized);
    all_bytes_equal = all_bytes_equal && bytes_equal;
    const int patched_stages = patched.result->stats.patched_stages;
    const bool replayed = patched.result->stats.anonymity_replayed;
    const double speedup = patched_s > 0 ? cold_s / patched_s : -1.0;
    if (routers >= gate_routers) {
      gate_routers = routers;
      gate_speedup = speedup;
    }

    std::printf("%-12s %6d %6d | %9.4f %9.4f %9.4f | %7.2fx %7d %6s %6llu "
                "%6s\n",
                "waxman-ospf", routers, hosts, base_s, cold_s, patched_s,
                speedup, patched_stages, replayed ? "yes" : "no",
                static_cast<unsigned long long>(walked),
                bytes_equal ? "ok" : "FAIL");
    bench::csv("watch,waxman-ospf," + std::to_string(routers) + "," +
               json_number(cold_s) + "," + json_number(patched_s) + "," +
               json_number(speedup));

    json += std::string(first ? "" : ",") +
            "\n    {\"family\": \"waxman-ospf\", \"routers\": " +
            std::to_string(routers) + ", \"hosts\": " +
            std::to_string(hosts) + ", \"repetitions\": " +
            std::to_string(repetitions) + ", \"base_s\": " +
            json_number(base_s) + ", \"cold_s\": " + json_number(cold_s) +
            ", \"patched_s\": " + json_number(patched_s) +
            ", \"speedup\": " + json_number(speedup) +
            ", \"seed\": " + std::to_string(seed) +
            ", \"cold_attempts\": " +
            std::to_string(cold.diagnostics.attempts) +
            ", \"patched_attempts\": " +
            std::to_string(patched.diagnostics.attempts) +
            ", \"patched_stages\": " + std::to_string(patched_stages) +
            ", \"anonymity_replayed\": " + (replayed ? "true" : "false") +
            ", \"patched_real_flows_walked\": " + std::to_string(walked) +
            ", \"bytes_equal\": " + (bytes_equal ? "true" : "false") +
            ", \"cold_phases_s\": " + cold_phases +
            ", \"patched_phases_s\": " + patched_phases + "}";
    first = false;
  }
  json += "\n  ]\n}\n";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!all_bytes_equal) {
    std::fprintf(stderr,
                 "BYTE MISMATCH: patched run diverged from cold run\n");
    return 1;
  }
  if (min_speedup > 0 && gate_speedup >= 0 && gate_speedup < min_speedup) {
    std::fprintf(stderr,
                 "SPEEDUP GATE: %.2fx at %d routers is below the required "
                 "%.2fx\n",
                 gate_speedup, gate_routers, min_speedup);
    return 1;
  }
  return 0;
}
