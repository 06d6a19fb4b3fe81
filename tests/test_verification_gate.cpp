// The verification gate compares node-id paths per destination
// (OriginalIndex::compare_real_flows). It must be exact in both
// directions: on every pipeline artifact its verdict equals the
// name-keyed DataPlane::equals_restricted over freshly simulated
// networks, and it rejects each kind of hand-made divergence on a real
// flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/filters.hpp"
#include "src/core/metrics.hpp"
#include "src/core/node_addition.hpp"
#include "src/core/original_index.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {
namespace {

std::set<std::string> host_names(const ConfigSet& configs) {
  std::set<std::string> names;
  for (const auto& host : configs.hosts) names.insert(host.hostname);
  return names;
}

/// The name-keyed verdict: fresh simulations of both networks, all flows
/// extracted, compared over the original's hosts.
bool names_equal(const ConfigSet& original, const ConfigSet& anonymized) {
  return simulated_data_plane(anonymized)
      .equals_restricted(simulated_data_plane(original),
                         host_names(original));
}

/// The id-keyed verdict of the gate on fresh simulations.
OriginalIndex::FlowComparison ids_compare(const ConfigSet& original,
                                          const ConfigSet& anonymized) {
  const Simulation original_sim(original);
  const OriginalIndex index(original_sim);
  return index.compare_real_flows(Simulation(anonymized));
}

/// Runs the pipeline and checks that its verdict, and the gate's on fresh
/// simulations, both equal the name-keyed one.
void expect_exact_verdict(const ConfigSet& original,
                          const ConfMaskOptions& options,
                          const std::string& label) {
  const PipelineResult result =
      run_pipeline(original, options, EquivalenceStrategy::kConfMask);
  const bool expected = names_equal(original, result.anonymized);
  EXPECT_EQ(result.functionally_equivalent, expected) << label;
  EXPECT_EQ(ids_compare(original, result.anonymized).equal, expected)
      << label;
}

// --- (a) the verdict equals the name comparison on pipeline artifacts ---

class GateOnScaleFamilies
    : public ::testing::TestWithParam<std::tuple<ScaleFamily, int>> {};

TEST_P(GateOnScaleFamilies, VerdictEqualsNameComparison) {
  const auto [family, seed] = GetParam();
  ConfMaskOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  expect_exact_verdict(make_scale_network(family, 316, seed), options,
                       scale_family_name(family));
}

INSTANTIATE_TEST_SUITE_P(
    ScaleFamilies316, GateOnScaleFamilies,
    ::testing::Combine(
        ::testing::Values(ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip,
                          ScaleFamily::kMultiAs,
                          ScaleFamily::kPreferentialAttachment),
        ::testing::Values(1, 2)),
    [](const auto& info) {
      std::string name = scale_family_name(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

class GateOnTable2
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, FakeLinkCostPolicy, int>> {};

TEST_P(GateOnTable2, VerdictEqualsNameComparison) {
  const auto [network_index, policy, fake_routers] = GetParam();
  const auto networks = evaluation_networks();
  const auto& network = networks[network_index];
  ConfMaskOptions options;
  options.cost_policy = policy;
  options.fake_routers = fake_routers;
  options.seed = 1;
  expect_exact_verdict(network.configs, options, network.name);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, GateOnTable2,
    ::testing::Combine(::testing::Range<std::size_t>(0, 8),
                       ::testing::Values(FakeLinkCostPolicy::kMinCost,
                                         FakeLinkCostPolicy::kDefault),
                       ::testing::Values(0, 3)),
    [](const auto& info) {
      std::ostringstream name;
      name << static_cast<char>('A' + std::get<0>(info.param))
           << (std::get<1>(info.param) == FakeLinkCostPolicy::kMinCost
                   ? "_mincost"
                   : "_default")
           << "_fake" << std::get<2>(info.param);
      return name.str();
    });

/// hs1, hs2 at router a; hd at router b; two equal-cost branches a–l–b and
/// a–r–b.
ConfigSet diamond() {
  NetworkBuilder builder;
  for (const char* name : {"a", "l", "r", "b"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("a", "l");
  builder.link("a", "r");
  builder.link("l", "b");
  builder.link("r", "b");
  builder.host("hs1", "a");
  builder.host("hs2", "a");
  builder.host("hd", "b");
  return builder.take();
}

/// Binds an inbound ACL on `router`'s interfaces towards each of `peers`
/// that drops (src → dst) and permits everything else.
void deny_inbound(ConfigSet& configs, const std::string& router,
                  const std::vector<std::string>& peers,
                  const std::string& src, const std::string& dst) {
  constexpr int kAcl = 101;
  auto* config = configs.find_router(router);
  const Ipv4Prefix any{Ipv4Address{0u}, 0};
  config->access_lists.push_back(AccessList{
      kAcl,
      {AclEntry{false, configs.find_host(src)->prefix(),
                configs.find_host(dst)->prefix()},
       AclEntry{true, any, any}}});
  for (auto& iface : config->interfaces) {
    for (const auto& peer : peers) {
      if (iface.description == "to-" + peer) iface.access_group_in = kAcl;
    }
  }
}

TEST(GateOnAclNetwork, VerdictEqualsNameComparison) {
  // An ACL black hole in the original: the per-source walk runs on both
  // sides, and the black-holed flow must stay black-holed.
  ConfigSet configs = diamond();
  deny_inbound(configs, "b", {"l", "r"}, "hs1", "hd");
  for (const auto policy :
       {FakeLinkCostPolicy::kMinCost, FakeLinkCostPolicy::kDefault}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      ConfMaskOptions options;
      options.k_r = 4;
      options.cost_policy = policy;
      options.seed = seed;
      expect_exact_verdict(configs, options,
                           "seed " + std::to_string(seed));
    }
  }
}

// --- (b) hand-made divergences on a real flow ---

/// The gate and the name comparison both reject `modified`, and the name
/// diff names `flow` among the divergent flows.
void expect_rejected(const ConfigSet& original, const ConfigSet& modified,
                     const FlowKey& flow) {
  EXPECT_FALSE(ids_compare(original, modified).equal);
  EXPECT_FALSE(names_equal(original, modified));
  const DataPlane original_dp = simulated_data_plane(original);
  const auto divergence =
      original_dp.diff(simulated_data_plane(modified).restricted_to(
                           original_dp.hosts()),
                       64);
  bool named = false;
  for (const auto& entry : divergence) {
    named = named ||
            (entry.source == flow.first && entry.destination == flow.second);
  }
  EXPECT_TRUE(named) << flow.first << " -> " << flow.second;
}

/// Adds a deny for `host`'s prefix on `router`'s link towards `peer`.
void deny_route(ConfigSet& configs, const std::string& router,
                const std::string& peer, const std::string& host) {
  const Topology topo = Topology::build(configs);
  const int node = topo.find_node(router);
  const int peer_node = topo.find_node(peer);
  for (int link : topo.links_of(node)) {
    if (topo.link(link).other_end(node).node != peer_node) continue;
    FilterEditor editor(configs, topo);
    ASSERT_TRUE(editor.add(node, link, configs.find_host(host)->prefix()));
    return;
  }
  FAIL() << "no link " << router << " - " << peer;
}

std::size_t path_count(const ConfigSet& configs, const std::string& src,
                       const std::string& dst) {
  const Simulation sim(configs);
  const Topology& topo = sim.topology();
  return sim.paths(topo.find_node(src), topo.find_node(dst)).size();
}

TEST(GateRejects, FilterShrinkingARealEcmpSet) {
  const ConfigSet original = diamond();
  ConfigSet modified = original;
  deny_route(modified, "a", "l", "hd");
  ASSERT_EQ(path_count(original, "hs1", "hd"), 2u);
  ASSERT_EQ(path_count(modified, "hs1", "hd"), 1u);  // shrunk, not gone
  expect_rejected(original, modified, {"hs1", "hd"});
}

TEST(GateRejects, AclBlockingExactlyOnePair) {
  // hs1 and hs2 share gateway a: only a per-source walk tells them apart.
  const ConfigSet original = diamond();
  ConfigSet modified = original;
  deny_inbound(modified, "b", {"l", "r"}, "hs1", "hd");
  ASSERT_EQ(path_count(modified, "hs1", "hd"), 0u);
  ASSERT_EQ(path_count(modified, "hs2", "hd"), 2u);
  expect_rejected(original, modified, {"hs1", "hd"});
  // Every other real flow is untouched.
  const DataPlane original_dp = simulated_data_plane(original);
  EXPECT_EQ(original_dp.diff(simulated_data_plane(modified), 64).size(), 1u);
}

TEST(GateRejects, FakeRouterOnARealPath) {
  // Node addition prices each fake-router link at ceil(D/2): with even
  // distances the detour ties the original path, and ECMP takes it.
  const ConfigSet original = make_bics();
  const Simulation original_sim(original);
  ConfigSet modified = original;
  PrefixAllocator allocator;
  for (const auto& prefix : original.used_prefixes()) {
    allocator.reserve(prefix);
  }
  Rng rng(15);
  NodeAdditionOptions options;
  options.fake_routers = 4;
  options.attach_fake_host = false;
  const auto added =
      add_fake_routers(modified, original_sim, options, rng, allocator);
  // Find a real flow now crossing a fake router.
  const std::set<std::string> fakes(added.fake_routers.begin(),
                                    added.fake_routers.end());
  std::optional<FlowKey> crossing;
  for (const auto& [flow, paths] : simulated_data_plane(modified).flows) {
    for (const auto& path : paths) {
      for (const auto& hop : path) {
        if (fakes.count(hop) != 0 && !crossing) crossing = flow;
      }
    }
  }
  ASSERT_TRUE(crossing.has_value());
  expect_rejected(original, modified, *crossing);
}

TEST(GateRejects, RealFlowLeftWithNoDeliveredPath) {
  const ConfigSet original = diamond();
  ConfigSet modified = original;
  deny_route(modified, "a", "l", "hd");
  deny_route(modified, "a", "r", "hd");
  ASSERT_EQ(path_count(modified, "hs1", "hd"), 0u);
  expect_rejected(original, modified, {"hs1", "hd"});
}

TEST(Gate, CountsEveryRealFlowOnAPassAndIsDeterministicOnAFailure) {
  // A passing comparison covers every ordered pair of real hosts, fake
  // hosts excluded.
  const ConfigSet original = make_bics();
  ConfMaskOptions options;
  options.seed = 3;
  const PipelineResult result = run_confmask(original, options);
  ASSERT_TRUE(result.functionally_equivalent);
  ASSERT_FALSE(result.fake_hosts.empty());
  const std::size_t hosts = original.hosts.size();
  EXPECT_EQ(ids_compare(original, result.anonymized).real_flows_compared,
            hosts * (hosts - 1));

  // A failing one stops early, at a count no worker count changes.
  ConfigSet broken = result.anonymized;
  broken.find_router(original.routers.back().hostname)->interfaces[0]
      .shutdown = true;
  ThreadPool::configure(1);
  const auto serial = ids_compare(original, broken);
  ThreadPool::configure(4);
  const auto parallel = ids_compare(original, broken);
  ThreadPool::configure(0);
  EXPECT_FALSE(serial.equal);
  EXPECT_FALSE(parallel.equal);
  EXPECT_EQ(serial.real_flows_compared, parallel.real_flows_compared);
  EXPECT_LT(serial.real_flows_compared, hosts * (hosts - 1));
}

// --- (c) watch mode: destinations a verified base already matched ---

// A destination is proved only while its original flow column is the
// base index's object and its FIB column the base simulation's, on the
// base's topology object; every other one, and the injected divergence's,
// is walked.
TEST(Gate, ProvesOnlyDestinationsTheVerifiedBaseAlreadyMatched) {
  const ConfigSet original = make_bics();
  ConfMaskOptions options;
  options.seed = 3;
  const PipelineResult result = run_confmask(original, options);
  ASSERT_TRUE(result.functionally_equivalent);
  const Simulation original_sim(original);
  const OriginalIndex index(original_sim);
  const Simulation anonymized(result.anonymized);
  const VerifiedBase base{&index, &anonymized};
  const std::size_t hosts = original.hosts.size();
  const std::size_t pairs = hosts * (hosts - 1);

  const auto all = index.compare_real_flows(anonymized, nullptr, base);
  EXPECT_TRUE(all.equal);
  EXPECT_EQ(all.real_flows_compared, 0u);
  EXPECT_EQ(all.real_flows_proved, pairs);

  // A rebuild has its own topology object: nothing is proved.
  const auto rebuilt = index.compare_real_flows(
      Simulation(result.anonymized), nullptr, base);
  EXPECT_TRUE(rebuilt.equal);
  EXPECT_EQ(rebuilt.real_flows_compared, pairs);
  EXPECT_EQ(rebuilt.real_flows_proved, 0u);

  // One FIB column recomputed: that destination is walked.
  const HostConfig& first = original.hosts.front();
  SimulationDelta delta;
  delta.record(0, first.prefix());
  const Simulation touched(result.anonymized, anonymized, delta);
  const auto one_fib = index.compare_real_flows(touched, nullptr, base);
  EXPECT_TRUE(one_fib.equal);
  EXPECT_EQ(one_fib.real_flows_compared, hosts - 1);
  EXPECT_EQ(one_fib.real_flows_proved, pairs - (hosts - 1));

  // One original flow column re-walked: that destination is walked.
  const HostConfig& last = original.hosts.back();
  const OriginalIndex spliced(original_sim, index, {last.prefix()});
  const auto one_flow =
      spliced.compare_real_flows(anonymized, nullptr, base);
  EXPECT_TRUE(one_flow.equal);
  EXPECT_EQ(one_flow.real_flows_compared, hosts - 1);

  // The injected divergence's destination is walked, and fails.
  const FlowKey injected{first.hostname, last.hostname};
  const auto diverged = index.compare_real_flows(anonymized, &injected, base);
  EXPECT_FALSE(diverged.equal);
  EXPECT_GT(diverged.real_flows_compared, 0u);
}

}  // namespace
}  // namespace confmask
