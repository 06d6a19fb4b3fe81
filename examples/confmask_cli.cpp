// confmask_cli — the end-to-end anonymizer as a command-line tool.
//
//   usage: confmask_cli <input-dir> <output-dir> [--kr N] [--kh N]
//                       [--p FLOAT] [--seed N] [--fake-routers N] [--pii B]
//                       [--jobs N] [--diagnostics-json FILE]
//                       [--trace FILE] [--metrics-json FILE]
//                       [--cache-dir DIR]
//          confmask_cli --version
//
// Every numeric flag takes one number and nothing else (read_number): --kr,
// --kh, --p, --seed and --fake-routers within option_error's bounds, --pii
// 0 or 1, --jobs at least 1. Any other value is a usage error (exit 2) that
// names the flag, before anything is read or written.
//
// --version prints the build stamp (the same string the artifact cache
// embeds in entry metadata for stale-binary invalidation).
//
// --cache-dir DIR consults the serving layer's content-addressed cache
// before running: a prior run with the same network and parameters (by any
// confmask_cli or confmaskd sharing DIR) is replayed byte-identically
// without re-simulation, and fresh successful runs are stored. Caching is
// bypassed when --pii is on: the PII key derives from the EFFECTIVE seed
// of a live run, which a cache hit does not replay.
//
// --jobs N sets the simulation worker-thread count (default: the
// CONFMASK_JOBS environment variable, else hardware concurrency). Results
// are bit-identical for any value.
//
// --trace FILE streams the run as NDJSON span/event lines
// (confmask.trace/1); --metrics-json FILE writes the end-of-run metrics
// summary (confmask.metrics/1: per-phase counters, histograms, timings,
// pool utilization). Both are written whether the run succeeds or fails
// closed. The summary's deterministic content (spans/totals/histograms) is
// identical for any --jobs value; only "timings"/"pool" vary.
//
// Reads every *.cfg file in <input-dir> (host configurations are detected
// by their `ip default-gateway` line), runs the full ConfMask pipeline
// under the guarded runner (retry/fallback ladder + fail-closed
// verification gate), and writes the anonymized files to <output-dir>.
//
// The CLI NEVER writes configs whose functional equivalence was not
// verified. On failure it prints the diagnostics (stage, category, the
// first divergent ⟨router, host, next-hop⟩ triples) and exits with a
// category-specific code:
//   0  success           10  InfeasibleParams   11  ResourceExhausted
//   1  I/O failure       12  NonConvergent      13  ParseError
//   2  usage             14  Internal
// --diagnostics-json additionally writes the full machine-readable
// diagnostics (status, fallback ladder events, divergence) to FILE.
//
// Try it on the output of the `research_sharing` example, or generate an
// input set with `confmask_cli --demo <dir>` which writes the paper's
// Figure 2 network; `--demo <dir> <ID>` (ID in A..H) writes one of the
// Table 2 evaluation networks instead.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/networks.hpp"
#include "src/pii/pii_addon.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/cache_key.hpp"
#include "src/util/build_info.hpp"
#include "src/util/strings.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace confmask;
namespace fs = std::filesystem;

int usage() {
  std::fprintf(stderr,
               "usage: confmask_cli <input-dir> <output-dir> [--kr N] "
               "[--kh N] [--p FLOAT] [--seed N] [--fake-routers N] "
               "[--pii 0|1] [--jobs N] [--diagnostics-json FILE] "
               "[--trace FILE] [--metrics-json FILE] [--cache-dir DIR]\n"
               "       confmask_cli --demo <dir> [A-H]   (write a demo "
               "network: paper Fig 2, or evaluation network A..H)\n"
               "       confmask_cli --version             (build stamp)\n");
  return 2;
}

void write_config_set(const ConfigSet& configs, const fs::path& dir) {
  fs::create_directories(dir);
  for (const auto& router : configs.routers) {
    std::ofstream(dir / (router.hostname + ".cfg")) << emit_router(router);
  }
  for (const auto& host : configs.hosts) {
    std::ofstream(dir / (host.hostname + ".cfg")) << emit_host(host);
  }
}

/// Machine-readable diagnostics — the shared renderer (diagnostics_to_json)
/// also backs the serving layer's cached diagnostics artifact, so the two
/// payloads can never fork.
void write_diagnostics_json(const fs::path& file,
                            const PipelineDiagnostics& diag) {
  std::ofstream(file) << diagnostics_to_json(diag);
}

void print_fallbacks(const PipelineDiagnostics& diag) {
  for (const auto& event : diag.fallbacks) {
    std::fprintf(stderr, "fallback [attempt %d] %s: %s\n", event.attempt,
                 to_string(event.kind), event.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", build_stamp().c_str());
    return 0;
  }
  if (argc >= 3 && std::strcmp(argv[1], "--demo") == 0) {
    if (argc >= 4) {
      for (const auto& network : evaluation_networks()) {
        if (network.id == argv[3]) {
          write_config_set(network.configs, argv[2]);
          std::printf("wrote evaluation network %s (%s, %s) to %s\n",
                      network.id.c_str(), network.name.c_str(),
                      network.type.c_str(), argv[2]);
          return 0;
        }
      }
      std::fprintf(stderr, "unknown evaluation network '%s' (want A..H)\n",
                   argv[3]);
      return 2;
    }
    write_config_set(make_figure2(), argv[2]);
    std::printf("wrote demo network (paper Fig 2) to %s\n", argv[2]);
    return 0;
  }
  if (argc < 3) return usage();

  ConfMaskOptions options;
  int pii = 0;
  unsigned jobs = 0;
  std::string diagnostics_json;
  std::string trace_file;
  std::string metrics_file;
  std::string cache_dir;
  for (int i = 3; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return usage();
    }
    bool numeric = true;
    const char* range = nullptr;  // set when the value is out of range
    if (std::strcmp(argv[i], "--kr") == 0) {
      numeric = read_number(argv[i + 1], options.k_r);
    } else if (std::strcmp(argv[i], "--kh") == 0) {
      numeric = read_number(argv[i + 1], options.k_h);
    } else if (std::strcmp(argv[i], "--p") == 0) {
      numeric = read_number(argv[i + 1], options.noise_p);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      numeric = read_number(argv[i + 1], options.seed);
    } else if (std::strcmp(argv[i], "--fake-routers") == 0) {
      numeric = read_number(argv[i + 1], options.fake_routers);
    } else if (std::strcmp(argv[i], "--pii") == 0) {
      numeric = read_number(argv[i + 1], pii);
      if (pii != 0 && pii != 1) range = "must be 0 or 1";
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      numeric = read_number(argv[i + 1], jobs);
      if (jobs < 1) range = "must be at least 1";
    } else if (std::strcmp(argv[i], "--diagnostics-json") == 0) {
      diagnostics_json = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_file = argv[i + 1];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_file = argv[i + 1];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      cache_dir = argv[i + 1];
    } else {
      return usage();
    }
    // The options held before this flag passed, so a bound broken now is
    // this flag's.
    const auto bound = option_error(options);
    const char* problem = !numeric ? "not a number"
                          : range  ? range
                          : bound  ? bound->c_str()
                                   : nullptr;
    if (problem != nullptr) {
      std::fprintf(stderr, "invalid %s '%s': %s\n", argv[i], argv[i + 1],
                   problem);
      return usage();
    }
  }
  const bool apply_pii = pii == 1;
  if (jobs > 0) ThreadPool::configure(jobs);

  // Ingest. Parse errors name the failing file (ConfigParseError source).
  std::error_code io_error;
  fs::directory_iterator input_it(argv[1], io_error);
  if (io_error) {
    std::fprintf(stderr, "cannot read %s: %s\n", argv[1],
                 io_error.message().c_str());
    return 1;
  }
  ConfigSet original;
  for (const auto& entry : input_it) {
    if (entry.path().extension() != ".cfg") continue;
    std::ifstream in(entry.path());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string source = entry.path().filename().string();
    try {
      if (looks_like_host(text)) {
        original.hosts.push_back(parse_host(text, source));
      } else {
        original.routers.push_back(parse_router(text, source));
      }
    } catch (const ConfigParseError& error) {
      std::fprintf(stderr, "parse error: %s\n", error.what());
      if (!diagnostics_json.empty()) {
        PipelineDiagnostics diag;
        diag.category = ErrorCategory::kParseError;
        diag.stage = PipelineStage::kPreprocess;
        diag.message = error.what();
        diag.attempts = 0;
        write_diagnostics_json(diagnostics_json, diag);
      }
      return exit_code_for(ErrorCategory::kParseError);
    }
  }
  if (original.routers.empty()) {
    std::fprintf(stderr, "no router configurations found in %s\n", argv[1]);
    return 1;
  }
  std::printf("read %zu routers, %zu hosts from %s\n",
              original.routers.size(), original.hosts.size(), argv[1]);

  // Content-addressed cache (the serving layer's ArtifactCache) for
  // one-shot runs. A hit replays a prior verified run byte-identically.
  if (!cache_dir.empty() && apply_pii) {
    std::fprintf(stderr,
                 "--pii bypasses --cache-dir: the PII key derives from the "
                 "effective seed of a live run\n");
    cache_dir.clear();
  }
  std::unique_ptr<ArtifactCache> cache;
  CacheKey cache_key;
  if (!cache_dir.empty()) {
    // Cached runs must execute on the canonical device ordering — device
    // order feeds pipeline tie-breaks, and the key is over canonical text.
    original = canonicalize(std::move(original));
    cache = std::make_unique<ArtifactCache>(cache_dir);
    cache_key = compute_cache_key(original, options, RetryPolicy{},
                                  EquivalenceStrategy::kConfMask);
    if (const auto hit = cache->lookup(cache_key)) {
      if (!diagnostics_json.empty()) {
        std::ofstream(diagnostics_json) << hit->diagnostics_json;
      }
      if (!metrics_file.empty()) {
        // The cached summary is the deterministic half (no timings).
        std::ofstream(metrics_file) << hit->metrics_json;
      }
      try {
        write_config_set(parse_config_set(hit->anonymized_configs), argv[2]);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "corrupt cache entry %s: %s\n",
                     cache_key.hex().c_str(), error.what());
        return 1;
      }
      std::printf("cache hit %s: anonymized configs written to %s\n",
                  cache_key.hex().c_str(), argv[2]);
      return 0;
    }
  }

  // Observability: install a PipelineTrace when --trace/--metrics-json was
  // asked for (or a cache store will need the deterministic metrics
  // artifact). The NDJSON stream flows while the run happens; the metrics
  // summary is written below, success or failure.
  std::ofstream trace_out;
  if (!trace_file.empty()) {
    trace_out.open(trace_file);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 1;
    }
  }
  std::unique_ptr<PipelineTrace> trace;
  if (!trace_file.empty() || !metrics_file.empty() || cache != nullptr) {
    PipelineTrace::Options trace_options;
    if (trace_out.is_open()) trace_options.trace_sink = &trace_out;
    trace = std::make_unique<PipelineTrace>(trace_options);
  }

  // Anonymize under the guarded runner: retries/fallbacks are automatic
  // and verification failure can never fail open into written configs.
  const auto guarded = run_pipeline_guarded(original, options);
  const auto& diag = guarded.diagnostics;
  if (!diagnostics_json.empty()) write_diagnostics_json(diagnostics_json, diag);
  if (!metrics_file.empty()) {
    std::ofstream(metrics_file) << trace->metrics_json(true);
  }
  print_fallbacks(diag);

  if (!guarded.ok()) {
    std::fprintf(stderr,
                 "pipeline FAILED closed after %d attempt(s) at stage %s "
                 "(%s): %s\n",
                 diag.attempts, to_string(diag.stage),
                 to_string(diag.category), diag.message.c_str());
    for (const auto& entry : diag.divergence) {
      std::string expected = "{";
      for (const auto& hop : entry.lhs_next_hops) {
        expected += (expected.size() > 1 ? ", " : "") + hop;
      }
      expected += "}";
      std::string actual = "{";
      for (const auto& hop : entry.rhs_next_hops) {
        actual += (actual.size() > 1 ? ", " : "") + hop;
      }
      actual += "}";
      std::fprintf(stderr,
                   "  divergence: flow %s -> %s at %s: expected next hops "
                   "%s, got %s\n",
                   entry.source.c_str(), entry.destination.c_str(),
                   entry.router.empty() ? "(whole flow)"
                                        : entry.router.c_str(),
                   expected.c_str(), actual.c_str());
    }
    std::fprintf(stderr, "no configuration files were written\n");
    return exit_code_for(diag.category);
  }

  const auto& result = *guarded.result;
  const auto& effective = guarded.effective_options;
  if (cache != nullptr) {
    CacheArtifacts artifacts;
    artifacts.anonymized_configs = canonical_config_set_text(result.anonymized);
    // `original` was canonicalized above when the cache was armed, so this
    // is the exact diff base a daemon resubmit would patch against.
    artifacts.original_configs = canonical_config_set_text(original);
    artifacts.diagnostics_json = diagnostics_to_json(diag);
    artifacts.metrics_json = trace->metrics_json(/*include_timings=*/false);
    cache->store(cache_key, artifacts);
  }
  std::printf("k_R=%d k_H=%d p=%.2f seed=%llu: +%zu fake links, +%zu fake "
              "hosts, +%zu lines, %d filters, %.2fs (%llu simulations, %d "
              "attempt(s))\n",
              effective.k_r, effective.k_h, effective.noise_p,
              static_cast<unsigned long long>(effective.seed),
              result.stats.fake_intra_links + result.stats.fake_inter_links,
              result.stats.fake_hosts,
              bundle_line_stats(original, result.anonymized).added(),
              result.stats.equivalence_filters + result.stats.anonymity_filters,
              result.stats.seconds,
              static_cast<unsigned long long>(result.stats.simulations),
              diag.attempts);

  ConfigSet published = result.anonymized;
  if (apply_pii) {
    PiiOptions pii_options;
    pii_options.key = effective.seed ^ 0x9E3779B97F4A7C15ULL;
    auto pii = apply_pii_addon(published, pii_options);
    published = std::move(pii.configs);
    std::printf("PII add-on: renumbered addresses, renamed %zu devices, "
                "hashed %zu AS numbers, scrubbed %d secret lines\n",
                pii.device_names.size(), pii.as_numbers.size(),
                pii.scrubbed_lines);
  }
  write_config_set(published, argv[2]);
  std::printf("functional equivalence verified; anonymized configs written "
              "to %s\n",
              argv[2]);
  std::printf("topology k-anonymity: %d; route anonymity N_r: %.2f avg\n",
              topology_min_degree_class_two_level(result.anonymized),
              route_anonymity_nr(simulated_data_plane(result.anonymized))
                  .average);
  return 0;
}
