// Figure 15: route anonymity N_r versus configuration utility U_C, one
// point per (network, k_R, k_H) case. The paper reports a loose negative
// correlation, r = -0.36.
#include <cmath>
#include <vector>

#include "bench/bench_common.hpp"

namespace {

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

int main() {
  using namespace confmask;
  bench::header("Figure 15: N_r vs U_C trade-off",
                "loose negative correlation, r ~ -0.36");
  std::printf("%-3s %4s %4s %8s %8s\n", "ID", "k_R", "k_H", "N_r", "U_C");
  std::vector<double> nrs;
  std::vector<double> ucs;
  for (const auto& network : bench::networks()) {
    for (const int k_r : {2, 6, 10}) {
      for (const int k_h : {2, 4}) {
        auto options = bench::default_options();
        options.k_r = k_r;
        options.k_h = k_h;
        const auto result = run_confmask(network.configs, options);
        const auto lines = bundle_line_stats(network.configs, result.anonymized);
        const double nr =
            route_anonymity_nr(simulated_data_plane(result.anonymized))
                .average;
        const double uc = config_utility(lines.original, lines.anonymized);
        std::printf("%-3s %4d %4d %8.2f %7.1f%%\n", network.id.c_str(), k_r,
                    k_h, nr, 100 * uc);
        bench::csv("fig15," + network.id + "," + std::to_string(k_r) + "," +
                   std::to_string(k_h) + "," + std::to_string(nr) + "," +
                   std::to_string(uc));
        nrs.push_back(nr);
        ucs.push_back(uc);
      }
    }
  }
  std::printf("\nPearson correlation r(N_r, U_C) = %.2f over %zu cases\n",
              pearson(nrs, ucs), nrs.size());
  return 0;
}
