// Differential tests: the fast simulation engine against the independent
// reference oracle (src/routing/reference_sim) — on the curated paper
// networks, on a seeded random corpus, and on the repro-minimization
// machinery itself. See DESIGN.md §10 for the modeling rules the two
// engines share by contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/config/emit.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/random_network.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/dataplane.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"
#include "src/testing/differential.hpp"

namespace confmask {
namespace {

/// FIB-level then data-plane-level agreement between the two engines.
void expect_oracle_agrees(const ConfigSet& configs, const std::string& label) {
  const Simulation fast(configs);
  const ReferenceSimulation ref(configs);
  const Topology& topo = fast.topology();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const int host : topo.host_ids()) {
      const auto& lhs = fast.fib(router, host);
      const auto& rhs = ref.fib(router, host);
      ASSERT_EQ(lhs.size(), rhs.size())
          << label << ": " << topo.node(router).name << " -> "
          << topo.node(host).name;
      for (std::size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].link, rhs[i].link)
            << label << ": " << topo.node(router).name << " -> "
            << topo.node(host).name << " hop " << i;
        EXPECT_EQ(lhs[i].neighbor, rhs[i].neighbor)
            << label << ": " << topo.node(router).name << " -> "
            << topo.node(host).name << " hop " << i;
      }
    }
  }
  const DataPlane ref_dp = ref.extract_data_plane();
  ASSERT_FALSE(ref.last_extraction_truncated()) << label;
  const auto diff = fast.extract_data_plane().diff(ref_dp, 4);
  EXPECT_TRUE(diff.empty()) << label << ": " << diff.size()
                            << " data-plane divergence(s), first at "
                            << diff.front().source << " -> "
                            << diff.front().destination;
}

TEST(DifferentialOracle, AgreesOnFigure2) {
  expect_oracle_agrees(make_figure2(), "figure2");
}

// Acceptance gate: the oracle must agree with the fast engine on all eight
// Table-2 evaluation networks A–H (BGP+OSPF, ISP OSPF, and fat trees).
TEST(DifferentialOracle, AgreesOnAllEvaluationNetworks) {
  for (const auto& net : evaluation_networks()) {
    expect_oracle_agrees(net.configs, net.id + " (" + net.name + ")");
  }
}

// A deterministic slice of the fuzz corpus: every seed runs the full check
// ladder (oracle, incremental ≡ full after edits, jobs-1 ≡ jobs-N). The CI
// `differential` job runs the same corpus two hundred seeds deep.
TEST(DifferentialOracle, RandomCorpusAgrees) {
  DifferentialOptions options;  // empty repro_dir: tests write no artifacts
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const DifferentialResult result = run_differential_case(seed, options);
    EXPECT_TRUE(result.ok)
        << "seed " << seed << ": "
        << (result.finding
                ? result.finding->check + " — " + result.finding->detail
                : std::string{});
  }
}

// The scale families at 500 routers, decorated, through the same ladder:
// flat ≡ oracle on the FIBs and data plane, incremental ≡ full after
// random filter edits, jobs-1 ≡ jobs-N. This is where the CSR/SoA core's
// layout tricks (interned filter slots, column arenas, lazy IGP rows)
// face networks three times deeper than the curated set.
TEST(DifferentialOracle, ScaleFamilyCorpusAgrees) {
  constexpr ScaleFamily kFamilies[] = {
      ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs};
  DifferentialOptions options;  // empty repro_dir: tests write no artifacts
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ConfigSet configs = make_scale_network(kFamilies[seed % 3], 500, seed);
    decorate_scale_network(configs, seed);
    const DifferentialResult result =
        run_differential_checks(configs, seed, options);
    EXPECT_TRUE(result.ok)
        << "seed " << seed << " (" << scale_family_name(kFamilies[seed % 3])
        << "): "
        << (result.finding
                ? result.finding->check + " — " + result.finding->detail
                : std::string{});
  }
}

// The pipeline's own artifacts carry CMF_ deny lists by the dozen to the
// thousand, the shape the deny index compiles; the corpora above decorate
// through a few add_route_filter calls per network. Every scale family at
// 316 routers, seeds 1-2, anonymized by the guarded runner: the engines
// must agree on every (router, host) FIB entry, fake hosts included, and
// on the data plane.
TEST(DifferentialOracle, AgreesOnPipelineArtifacts) {
  for (const ScaleFamily family :
       {ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
        ScaleFamily::kPreferentialAttachment}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const std::string label = std::string(scale_family_name(family)) +
                                " seed " + std::to_string(seed);
      ConfMaskOptions options;
      options.k_r = 6;
      options.k_h = 2;
      options.noise_p = 0.1;
      options.seed = seed;
      const auto guarded =
          run_pipeline_guarded(make_scale_network(family, 316, seed), options);
      ASSERT_TRUE(guarded.ok()) << label;
      const ConfigSet& artifact = guarded.result->anonymized;
      std::size_t denies = 0;
      for (const auto& router : artifact.routers) {
        for (const auto& list : router.prefix_lists) {
          for (const auto& entry : list.entries) denies += entry.permit ? 0 : 1;
        }
      }
      EXPECT_GT(denies, 0u) << label;  // the deny index is exercised
      expect_oracle_agrees(artifact, label);
    }
  }
}

/// r1 reaches r3 over three equal-cost two-hop paths (via r2, r4, r5),
/// under OSPF or RIP, with h1 behind r1 and ha..hd behind r3. r1's
/// interface towards r2 is bound to a ConfMask-shaped list denying ha and
/// to a list with a permit before a ge/le range deny (hb passes, every
/// other /24 is denied); towards r4 to a list whose only permit is not a
/// permit-all (hc passes, everything else is denied); towards r5 to a list
/// of exact denies alone (everything is denied).
ConfigSet mixed_filter_network(bool rip) {
  NetworkBuilder builder;
  for (const char* name : {"r1", "r2", "r3", "r4", "r5"}) {
    builder.router(name);
    if (rip) {
      builder.enable_rip(name);
    } else {
      builder.enable_ospf(name);
    }
  }
  for (const char* middle : {"r2", "r4", "r5"}) {
    builder.link("r1", middle);
    builder.link(middle, "r3");
  }
  builder.host("h1", "r1");
  for (const char* name : {"ha", "hb", "hc", "hd"}) builder.host(name, "r3");
  ConfigSet configs = builder.take();
  const auto prefix = [&](const char* host) {
    return configs.find_host(host)->prefix();
  };
  const Topology topo = Topology::build(configs);
  const int r1_node = topo.find_node("r1");
  const auto towards = [&](const char* peer) {
    for (const int link : topo.links_of(r1_node)) {
      if (topo.link(link).other_end(r1_node).node == topo.find_node(peer)) {
        return topo.link(link).end_of(r1_node).interface;
      }
    }
    return std::string{};
  };
  const Ipv4Prefix any{Ipv4Address{0u}, 0};
  RouterConfig& r1 = *configs.find_router("r1");
  PrefixList& shaped = r1.ensure_prefix_list("CMF_TO_R2");
  shaped.add_deny(prefix("ha"));
  shaped.add_permit_all();
  r1.ensure_prefix_list("RANGE").entries = {
      PrefixListEntry{5, true, prefix("hb"), std::nullopt, std::nullopt},
      PrefixListEntry{10, false, any, 24, 24},
      PrefixListEntry{15, true, any, 32, std::nullopt}};
  r1.ensure_prefix_list("ONLY_HC").entries = {
      PrefixListEntry{5, false, prefix("hd"), std::nullopt, std::nullopt},
      PrefixListEntry{10, true, prefix("hc"), std::nullopt, std::nullopt}};
  r1.ensure_prefix_list("DENY_HB").add_deny(prefix("hb"));
  auto& bindings = rip ? r1.rip->distribute_lists : r1.ospf->distribute_lists;
  bindings.push_back(DistributeList{"CMF_TO_R2", towards("r2")});
  bindings.push_back(DistributeList{"RANGE", towards("r2")});
  bindings.push_back(DistributeList{"ONLY_HC", towards("r4")});
  bindings.push_back(DistributeList{"DENY_HB", towards("r5")});
  return configs;
}

// The deny index answers only ConfMask-shaped lists; ranges, a permit
// ahead of a deny and a missing permit-all keep the ordered scan. A slot
// denies when any of its lists denies.
TEST(DifferentialOracle, MixedFilterShapesOnOneSlot) {
  for (const bool rip : {false, true}) {
    const ConfigSet configs = mixed_filter_network(rip);
    const std::string label = rip ? "rip" : "ospf";
    expect_oracle_agrees(configs, label);
    const Simulation sim(configs);
    const Topology& topo = sim.topology();
    const int r1 = topo.find_node("r1");
    const auto next_hops = [&](const char* host) {
      std::vector<std::string> names;
      for (const NextHop& hop : sim.fib(r1, topo.find_node(host))) {
        names.push_back(topo.node(hop.neighbor).name);
      }
      std::sort(names.begin(), names.end());
      return names;
    };
    using Names = std::vector<std::string>;
    EXPECT_EQ(sim.fib(r1, topo.find_node("h1")).size(), 1u) << label;
    EXPECT_EQ(next_hops("ha"), Names{}) << label;
    EXPECT_EQ(next_hops("hb"), Names{"r2"}) << label;
    EXPECT_EQ(next_hops("hc"), Names{"r4"}) << label;
    EXPECT_EQ(next_hops("hd"), Names{}) << label;
  }
}

// Replaying a repro requires the seed to fully determine the decorated
// network, byte for byte.
TEST(DifferentialOracle, GenerationAndDecorationAreDeterministic) {
  const DifferentialOptions options;
  for (const std::uint64_t seed : {3ull, 11ull, 17ull}) {
    ConfigSet first = make_random_network(options.network, seed);
    decorate_random_network(first, seed, options);
    ConfigSet second = make_random_network(options.network, seed);
    decorate_random_network(second, seed, options);
    ASSERT_EQ(first.routers.size(), second.routers.size()) << seed;
    ASSERT_EQ(first.hosts.size(), second.hosts.size()) << seed;
    for (std::size_t i = 0; i < first.routers.size(); ++i) {
      EXPECT_EQ(emit_router(first.routers[i]), emit_router(second.routers[i]))
          << "seed " << seed << " router " << i;
    }
    for (std::size_t i = 0; i < first.hosts.size(); ++i) {
      EXPECT_EQ(emit_host(first.hosts[i]), emit_host(second.hosts[i]))
          << "seed " << seed << " host " << i;
    }
  }
}

// Regression (mutation test, seed 2): the greedy minimizer held a
// reference into the config set across shrink attempts, but a successful
// attempt replaces the set wholesale, so the reference dangled — a
// heap-use-after-free under ASan the moment any real divergence was being
// minimized. An always-true predicate makes every deletion "succeed" and
// walks every shrink loop through the replacement path.
TEST(DifferentialOracle, MinimizerSurvivesEveryShrinkSucceeding) {
  const DifferentialOptions options;
  ConfigSet configs = make_random_network(options.network, 2);
  decorate_random_network(configs, 2, options);
  const ConfigSet minimized = minimize_failing_config(
      std::move(configs), [](const ConfigSet&) { return true; });
  EXPECT_TRUE(minimized.routers.empty());
  EXPECT_TRUE(minimized.hosts.empty());
}

// The minimizer must keep exactly what the predicate pins and drop the
// rest (hosts go first, so none survive a router-only predicate).
TEST(DifferentialOracle, MinimizerKeepsOnlyFailureRelevantElements) {
  const DifferentialOptions options;
  ConfigSet configs = make_random_network(options.network, 7);
  decorate_random_network(configs, 7, options);
  const std::string keep = configs.routers.front().hostname;
  const ConfigSet minimized = minimize_failing_config(
      std::move(configs), [&](const ConfigSet& candidate) {
        for (const auto& router : candidate.routers) {
          if (router.hostname == keep) return true;
        }
        return false;
      });
  ASSERT_EQ(minimized.routers.size(), 1u);
  EXPECT_EQ(minimized.routers.front().hostname, keep);
  EXPECT_TRUE(minimized.hosts.empty());
  EXPECT_TRUE(minimized.routers.front().static_routes.empty());
}

}  // namespace
}  // namespace confmask
