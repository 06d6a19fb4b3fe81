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
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"

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

/// A JSON number with six decimals (std::to_string), the BENCH_*.json form.
inline std::string json_number(double value) { return std::to_string(value); }

}  // namespace confmask::bench
