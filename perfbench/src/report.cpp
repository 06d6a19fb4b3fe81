// The run report: machine facts, the end-to-end table (untraced runs) or
// the per-layer table (traced runs), and the final JSON line.
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "perfbench/src/bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th smallest value. With ten samples or fewer, the maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.beyond = 10;
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (path.empty() || ::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           number + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Per-layer metrics: name, unit, what it should move, on which workload.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;
};
const LayerSpec kLayers[] = {
    {"core.preprocess_ms", "ms", "op_ms_p50 ops_per_s cpu_ms_per_op: cold-1k serve-edits"},
    {"core.topology_anon_ms", "ms", "op_ms_p50 ops_per_s cpu_ms_per_op: cold-1k serve-edits"},
    {"core.route_equivalence_ms", "ms", "op_ms_p50 ops_per_s cpu_ms_per_op: cold-1k serve-edits"},
    {"core.route_anonymity_ms", "ms", "op_ms_p50 ops_per_s cpu_ms_per_op: cold-1k serve-edits"},
    {"core.verification_ms", "ms", "op_ms_p50 ops_per_s cpu_ms_per_op: cold-1k serve-edits"},
    {"core.attempts_per_op", "count", "op_ms_tail verified_share: cold-1k"},
    {"core.simulations_per_op", "count", "op_ms_p50: cold-1k serve-edits"},
    {"core.anonymity_filters_kept_share", "share", "route_anonymity_ms: cold-1k"},
    {"core.equivalence_iterations_per_op", "count", "route_equivalence_ms: cold-1k"},
    {"core.fib_entries_scanned_per_op", "count", "route_equivalence_ms: cold-1k"},
    {"routing.topology_build_ms", "ms", "preprocess_ms: cold-1k"},
    {"routing.fresh_sim_ms", "ms", "preprocess_ms verification_ms peak_rss_mb: cold-1k"},
    {"routing.dataplane_ms", "ms", "verification_ms: cold-1k"},
    {"graph.k_degree_ms", "ms", "topology_anon_ms: cold-1k"},
    {"util.pool_busy_share", "share", "ops_per_s cpu_ms_per_op: cold-1k"},
    {"config.parse_bundle_ms", "ms", "submit_ms: serve-hits serve-edits"},
    {"config.canonical_text_ms", "ms", "submit_ms: serve-hits serve-edits"},
    {"config.apply_diff_ms", "ms", "submit_ms: serve-edits"},
    {"service.submit_ms", "ms", "op_ms_p50 op_ms_tail: serve-hits serve-edits"},
    {"service.wait_ms", "ms", "op_ms_p50: serve-hits serve-edits"},
    {"service.result_ms", "ms", "op_ms_p50: serve-hits"},
    {"service.cache_key_ms", "ms", "submit_ms: serve-hits"},
    {"service.journal_append_ms", "ms", "submit_ms op_ms_tail: serve-hits serve-edits"},
    {"service.cache_lookup_ms", "ms", "wait_ms: serve-hits"},
    {"service.cache_store_ms", "ms", "wait_ms: serve-edits"},
    {"service.cache_hit_share", "share", "op_ms_p50: serve-hits (1 by design)"},
    {"service.patched_share", "share", "op_ms_p50: serve-edits (1 by design)"},
    {"service.wire_kb_per_op", "KB", "result_ms: serve-hits"},
};

}  // namespace

int report(const RunConfig& config, const WorkloadResult& result) {
  const Window& window = result.untraced;
  const std::size_t attempted =
      window.op_ms.size() + (result.traced ? result.traced->op_ms.size() : 0);
  std::size_t verified = 0;
  for (const bool ok : window.verified) verified += ok ? 1 : 0;
  if (result.traced) {
    for (const bool ok : result.traced->verified) verified += ok ? 1 : 0;
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("machine: nproc=%ld hardware_concurrency=%u build_type=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  std::printf("storage: %s on %s\n", result.storage_path.c_str(),
              filesystem_of(result.storage_path).c_str());
  for (const std::string& fact : result.facts) std::printf("%s\n", fact.c_str());
  std::printf("setup_s samples:");
  for (const double s : result.setup_s) std::printf(" %.4f", s);
  std::printf("\nops attempted %zu, failed %zu (no verified artifact)\n",
              attempted, attempted - verified);
  std::printf("checks self-test: %s\n",
              result.checks_self_test_ok ? "ok" : "FAILED");

  std::vector<Metric> metrics;
  if (!config.trace) {
    const double n = static_cast<double>(window.op_ms.size());
    // Latency and throughput per part, then the median over the parts.
    const std::size_t parts = std::max<std::size_t>(1, window.part_s.size());
    const std::size_t part_n = window.op_ms.size() / parts;
    std::vector<double> p50s, tails, rates;
    Tail tail;
    for (std::size_t part = 0; part < parts; ++part) {
      const std::vector<double> ops(
          window.op_ms.begin() + static_cast<std::ptrdiff_t>(part * part_n),
          window.op_ms.begin() +
              static_cast<std::ptrdiff_t>((part + 1) * part_n));
      p50s.push_back(median(ops));
      tail = tail_of(ops);
      tails.push_back(tail.value);
      const double seconds =
          part < window.part_s.size() ? window.part_s[part] : 0;
      rates.push_back(seconds > 0 ? static_cast<double>(part_n) / seconds : 0);
    }
    std::size_t window_verified = 0;
    for (const bool ok : window.verified) window_verified += ok ? 1 : 0;
    metrics = {
        {"setup_s", median(result.setup_s), "s"},
        {"op_ms_p50", median(p50s), "ms"},
        {"op_ms_tail", median(tails), "ms"},
        {"ops_per_s", median(rates), "1/s"},
        {"verified_share", n > 0 ? static_cast<double>(window_verified) / n : 0,
         "share"},
        {"peak_rss_mb", window.peak_rss_mb, "MB"},
        {"cpu_ms_per_op", n > 0 ? window.cpu_ms / n : 0, "ms"},
    };
    std::printf("op_ms_tail: p%.2f, %zu samples beyond it, of %zu ops",
                tail.percentile, tail.beyond, part_n);
    double elapsed = 0;
    for (const double s : window.part_s) elapsed += s;
    if (parts > 1) {
      const Tail whole = tail_of(window.op_ms);
      std::printf(" per part; median over %zu parts (whole window: p%.2f "
                  "%.4f ms, p50 %.4f ms, %.4f ops/s)\nparts:",
                  parts, whole.percentile, whole.value, median(window.op_ms),
                  elapsed > 0 ? n / elapsed : 0);
      for (std::size_t part = 0; part < parts; ++part) {
        std::printf(" [p50 %.2f tail %.2f ms, %.1f ops/s]", p50s[part],
                    tails[part], rates[part]);
      }
    }
    std::printf("\npeak_rss_mb: VmHWM %s\n",
                window.rss_reset ? "reset at window start"
                                 : "since process start (reset refused)");
    std::printf("window: %.3f s in %zu part(s), %zu ops, %zu verified\n",
                elapsed, parts, window.op_ms.size(), window_verified);
    std::printf("\n%-16s %14s  %s\n", "end-to-end", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-16s %14.4f  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  } else {
    const auto samples = result.tracer->samples();
    const double untraced_p50 = median(window.op_ms);
    const double traced_p50 = median(result.traced->op_ms);
    std::printf("\n%-36s %14s %-6s %8s  %-13s %s\n", "per-layer", "median",
                "unit", "samples", "source", "should move");
    for (const LayerSpec& layer : kLayers) {
      const auto it = samples.find(layer.name);
      const std::size_t count = it == samples.end() ? 0 : it->second.values.size();
      const double value = count == 0 ? 0 : median(it->second.values);
      metrics.push_back({layer.name, value, layer.unit});
      std::printf("%-36s %14.4f %-6s %8zu  %-13s %s\n", layer.name, value,
                  layer.unit, count,
                  count == 0 ? "n/a" : it->second.source.c_str(), layer.moves);
    }
    const double overhead = untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0;
    metrics.push_back({"trace.overhead_ratio", overhead, "ratio"});
    std::printf("tracing overhead: traced op_ms_p50 %.4f ms / untraced %.4f ms"
                " = %.4f\n",
                traced_p50, untraced_p50, overhead);
    const auto share = [&](const char* name) {
      const auto it = samples.find(name);
      return it == samples.end() ? -1.0 : median(it->second.values);
    };
    if (config.workload == "serve-hits" &&
        share("service.cache_hit_share") < 1.0) {
      std::printf("FLAG: serve-hits stopped doing its named work: "
                  "service.cache_hit_share below 1\n");
    }
    if (config.workload == "serve-edits" &&
        share("service.patched_share") < 1.0) {
      std::printf("FLAG: serve-edits stopped doing its named work: "
                  "service.patched_share below 1\n");
    }
  }

  const bool correct = result.checks_self_test_ok && attempted > 0 &&
                       result.returned_unverified == 0;
  std::printf("returned artifacts failing the independent checks: %zu\n",
              result.returned_unverified);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, attempted - verified,
              json_metrics(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
