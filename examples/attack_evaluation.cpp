// Adversary's-eye view: run the de-anonymization toolbox of §2.2/§3.2
// against three ways of adding fake links, on the Bics ISP network.
//
//   $ ./attack_evaluation
//
// The adversary holds only what a configuration recipient holds — the
// files and a simulator — and tries to separate fake links from real
// ones. The output is the §3.2 narrative, measured:
//   naive (bare interfaces)  -> unconfigured-interface attack wins;
//   large-cost fake links    -> zero-traffic attack wins (100% TPR);
//   ConfMask (min-cost + fake hosts + noise) -> both attacks starve, and
//   degree re-identification is capped at k_R candidates.
#include <cstdio>

#include "src/core/confmask.hpp"
#include "src/core/deanonymize.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/simulation.hpp"

int main() {
  using namespace confmask;
  const ConfigSet original = make_bics();
  std::printf("target: Bics (49 routers); adversary gets the anonymized "
              "files and a simulator\n\n");
  std::printf("%-34s %10s %12s %12s %12s\n", "defense", "fake links",
              "unconfig'd", "0-traffic", "re-id cand.");

  const auto evaluate = [&](const char* label, const ConfigSet& anonymized,
                            const DataPlane& dp) {
    const auto unconfigured = unconfigured_interface_links(anonymized);
    const auto zero_traffic = zero_traffic_links(anonymized, dp);
    const auto report_a = score_attack(original, anonymized, unconfigured);
    const auto report_b = score_attack(original, anonymized, zero_traffic);
    std::printf("%-34s %10zu %11.0f%% %11.0f%% %12d\n", label,
                report_a.fake_links, 100.0 * report_a.true_positive_rate(),
                100.0 * report_b.true_positive_rate(),
                min_reidentification_candidates(anonymized));
  };

  // 0. Baseline: the original network (nothing to find, 1-candidate
  //    re-identification).
  {
    const Simulation sim(original);
    evaluate("none (original network)", original, sim.extract_data_plane());
  }

  // 1. Naive §3.2-step-1 fake links: bare interface pairs.
  {
    ConfigSet naive = original;
    PrefixAllocator allocator;
    for (const auto& p : original.used_prefixes()) allocator.reserve(p);
    for (int i = 0; i + 1 < 12; i += 2) {
      const auto prefix = allocator.allocate_link();
      auto& ra = naive.routers[static_cast<std::size_t>(i)];
      auto& rb = naive.routers[static_cast<std::size_t>(i + 1) * 3 % 49];
      InterfaceConfig a;
      a.name = ra.fresh_interface_name();
      a.address = prefix.host(0);
      a.prefix_length = 31;
      ra.interfaces.push_back(a);
      InterfaceConfig b;
      b.name = rb.fresh_interface_name();
      b.address = prefix.host(1);
      b.prefix_length = 31;
      rb.interfaces.push_back(b);
    }
    const Simulation sim(naive);
    evaluate("naive: bare interface pairs", naive,
             sim.extract_data_plane());
  }

  // 2. Large-cost fake links (the §3.2 option-ii strawman).
  {
    ConfMaskOptions options;
    options.cost_policy = FakeLinkCostPolicy::kLarge;
    options.seed = 42;
    const auto result = run_confmask(original, options);
    evaluate("strawman: cost = 60000", result.anonymized,
             simulated_data_plane(result.anonymized));
  }

  // 3. Full ConfMask (min-cost fake links, fake hosts, noise filters).
  {
    ConfMaskOptions options;
    options.seed = 42;
    const auto result = run_confmask(original, options);
    evaluate("ConfMask (min-cost + Alg.2)", result.anonymized,
             simulated_data_plane(result.anonymized));
  }

  // 4. ConfMask + fake routers (the §9 extension).
  {
    ConfMaskOptions options;
    options.seed = 42;
    options.fake_routers = 5;
    const auto result = run_confmask(original, options);
    evaluate("ConfMask + 5 fake routers", result.anonymized,
             simulated_data_plane(result.anonymized));
  }

  std::printf(
      "\nreading: 'unconfig'd'/'0-traffic' = share of fake links each "
      "attack identifies (lower is better);\n're-id cand.' = smallest "
      "candidate set when matching routers by degree (higher is better, "
      ">= k_R by design).\n");
  return 0;
}
