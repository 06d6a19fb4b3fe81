// Shared plumbing for the experiment harnesses in bench/.
//
// Every binary regenerates one table or figure of the paper's evaluation
// (§7 / Appendix C): it prints a human-readable table mirroring the
// figure's rows, plus machine-readable lines prefixed "CSV," for
// EXPERIMENTS.md tooling. All binaries run with fixed seeds so outputs are
// reproducible bit-for-bit.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/networks.hpp"
#include "src/util/json_writer.hpp"

namespace confmask::bench {

/// The eight evaluation networks, generated once per process.
inline const std::vector<EvalNetwork>& networks() {
  static const std::vector<EvalNetwork> instance = evaluation_networks();
  return instance;
}

/// Fixed default parameters used throughout §7.1 (k_R = 6, k_H = 2).
inline ConfMaskOptions default_options(std::uint64_t seed = 0xC0DE) {
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = seed;
  return options;
}

inline void header(const char* title, const char* paper_claim) {
  std::printf("== %s ==\n", title);
  std::printf("paper: %s\n\n", paper_claim);
}

inline void csv(const std::string& line) {
  std::printf("CSV,%s\n", line.c_str());
}

/// Writes the member `key`: {"<top-level span path>": seconds, ...}, the
/// per-phase times a BENCH_*.json entry carries.
inline void write_phase_seconds(JsonWriter& out, std::string_view key,
                                const std::vector<SpanMetrics>& spans) {
  out.object(key);
  for (const SpanMetrics& span : spans) {
    if (span.path.find('/') != std::string::npos) continue;
    out.fixed(span.path, static_cast<double>(span.total_ns) * 1e-9);
  }
  out.end();
}

}  // namespace confmask::bench
