// Incremental re-simulation (SimulationDelta dirty sets): the incremental
// constructor must be bit-identical to a fresh build after any sequence of
// filter edits, reuse everything a filter cannot affect, and recompute
// distance vectors only where the protocol requires it (RIP embeds filters
// in Bellman-Ford; OSPF distances are filter-independent).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/filters.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/core/route_anonymity.hpp"
#include "src/core/route_equivalence.hpp"
#include "src/core/topology_anonymization.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/hash.hpp"
#include "src/util/ipv4.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {
namespace {

// FIB-level equality over every (router, destination) pair — stricter than
// comparing extracted data planes (it also covers black-holed entries).
// With `only`, just those destinations' columns are compared.
void expect_same_fibs(const Simulation& actual, const Simulation& expected,
                      const std::vector<int>* only = nullptr) {
  const auto& topo = expected.topology();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const int host : only != nullptr ? *only : topo.host_ids()) {
      EXPECT_EQ(actual.fib(router, host), expected.fib(router, host))
          << "router " << topo.node(router).name << " -> host "
          << topo.node(host).name;
    }
  }
  if (only == nullptr) {
    EXPECT_TRUE(actual.extract_data_plane() == expected.extract_data_plane());
  }
}

// Denies `host`'s prefix on the first router/next-hop where a filter
// actually takes (skipping the gateway's direct delivery), recording the
// edit in `delta`. Returns false if the network offers no such spot.
bool deny_first_transit_hop(ConfigSet& configs, const Simulation& sim,
                            int host, SimulationDelta& delta) {
  const auto& topo = sim.topology();
  const Ipv4Prefix prefix =
      configs.hosts[static_cast<std::size_t>(topo.node(host).config_index)]
          .prefix();
  FilterEditor editor(configs, topo);
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const NextHop& hop : sim.fib(router, host)) {
      if (hop.neighbor == host) continue;
      if (editor.add(router, hop.link, prefix)) {
        delta.record(router, prefix);
        return true;
      }
    }
  }
  return false;
}

TEST(IncrementalSim, EmptyDeltaReusesEverything) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  const Simulation incremental(configs, base, SimulationDelta{});

  expect_same_fibs(incremental, base);
  const auto& stats = incremental.incremental_stats();
  EXPECT_EQ(stats.destinations_recomputed, 0);
  EXPECT_EQ(stats.destinations_reused, base.topology().host_count());
  EXPECT_EQ(stats.distance_vectors_recomputed, 0);
  EXPECT_EQ(stats.distance_vectors_reused, 0);
}

TEST(IncrementalSim, NonMatchingPrefixInvalidatesNothing) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  SimulationDelta delta;
  delta.record(0, *Ipv4Prefix::parse("203.0.113.0/24"));
  const Simulation incremental(configs, base, delta);

  expect_same_fibs(incremental, base);
  EXPECT_EQ(incremental.incremental_stats().destinations_recomputed, 0);
}

TEST(IncrementalSim, OspfFilterReusesDistanceVectors) {
  auto configs = make_figure2();
  auto base = std::make_unique<const Simulation>(configs);
  const int h4 = base->topology().find_node("h4");
  ASSERT_GE(h4, 0);

  SimulationDelta delta;
  ASSERT_TRUE(deny_first_transit_hop(configs, *base, h4, delta));
  const Simulation incremental(configs, *base, delta);
  base.reset();  // incremental results must not alias the previous build
  const Simulation fresh(configs);

  expect_same_fibs(incremental, fresh);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.destinations_recomputed, 0);
  EXPECT_GT(stats.destinations_reused, 0);  // only h4's column was dirty
  // OSPF: link-state distances are filter-independent, so even the dirty
  // destination reuses its cached distance vector.
  EXPECT_GT(stats.distance_vectors_reused, 0);
  EXPECT_EQ(stats.distance_vectors_recomputed, 0);
}

// A column donor outlives the configs its simulation read: seeding from
// it equals a fresh build, while reading its configs or walking paths over
// it throws.
TEST(IncrementalSim, ColumnDonorSeedsLikeItsSimulationAndRefusesWalks) {
  auto configs = std::make_unique<ConfigSet>(make_figure2());
  ConfigSet edited = *configs;
  std::shared_ptr<const Simulation> donor;
  SimulationDelta delta;
  {
    const Simulation live(*configs);
    const int h4 = live.topology().find_node("h4");
    ASSERT_GE(h4, 0);
    ASSERT_TRUE(deny_first_transit_hop(edited, live, h4, delta));
    donor = live.column_donor();
  }
  configs.reset();
  const Simulation seeded(edited, *donor, delta);
  const Simulation fresh(edited);
  expect_same_fibs(seeded, fresh);
  EXPECT_GT(seeded.incremental_stats().destinations_reused, 0);

  const int h1 = donor->topology().find_node("h1");
  const int h4 = donor->topology().find_node("h4");
  EXPECT_THROW((void)donor->configs(), std::logic_error);
  EXPECT_THROW((void)donor->flow_column(h4), std::logic_error);
  EXPECT_THROW((void)donor->node_paths(h1, h4), std::logic_error);
  EXPECT_THROW((void)donor->extract_data_plane(), std::logic_error);
}

TEST(IncrementalSim, RipFilterRecomputesDistanceVectors) {
  auto configs = make_isp_rip("rip", 8, 6, 12, 0x51D);
  const Simulation base(configs);
  const auto hosts = base.topology().host_ids();
  ASSERT_FALSE(hosts.empty());

  SimulationDelta delta;
  bool edited = false;
  for (const int host : hosts) {
    if (deny_first_transit_hop(configs, base, host, delta)) {
      edited = true;
      break;
    }
  }
  ASSERT_TRUE(edited);
  const Simulation incremental(configs, base, delta);
  const Simulation fresh(configs);

  expect_same_fibs(incremental, fresh);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.destinations_recomputed, 0);
  // RIP: filters participate in the distance-vector relaxation itself.
  EXPECT_GT(stats.distance_vectors_recomputed, 0);
  EXPECT_EQ(stats.distance_vectors_reused, 0);
}

TEST(IncrementalSim, RemovalIsInvalidatedLikeAddition) {
  auto configs = make_figure2();
  const Simulation original(configs);
  const int h1 = original.topology().find_node("h1");
  ASSERT_GE(h1, 0);

  SimulationDelta delta;
  ASSERT_TRUE(deny_first_transit_hop(configs, original, h1, delta));
  const Simulation filtered(configs, original, delta);

  // Undo the edit: the delta records the same (router, prefix) again.
  const auto change = delta.changes.front();
  delta.clear();
  const auto& topo = filtered.topology();
  bool removed = false;
  FilterEditor editor(configs, topo);
  for (const int link_id : topo.links_of(change.router)) {
    removed = removed || editor.remove(change.router, link_id, change.prefix);
  }
  ASSERT_TRUE(removed);
  delta.record(change.router, change.prefix);

  const Simulation back(configs, filtered, delta);
  const Simulation fresh(configs);
  expect_same_fibs(back, fresh);
  // Round trip: removing the only filter restores the original routing.
  expect_same_fibs(back, original);
}

// Dirty matching hashes each change masked to the shorter of its own and
// the destination's length, so a change dirties exactly the destinations
// it overlaps: a covering supernet all of them, a longer prefix inside
// one LAN only that LAN.
TEST(IncrementalSim, DirtySetFollowsPrefixOverlapAtAnyLength) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  const int hosts = base.topology().host_count();
  const int h4 = base.topology().find_node("h4");
  const Ipv4Prefix& lan = base.host_prefix(h4);
  const auto recomputed = [&](const Ipv4Prefix& prefix) {
    SimulationDelta delta;
    delta.record(0, prefix);
    const Simulation incremental(configs, base, delta);
    expect_same_fibs(incremental, base);
    return incremental.incremental_stats().destinations_recomputed;
  };
  EXPECT_EQ(recomputed(Ipv4Prefix{lan.network(), 0}), hosts);
  EXPECT_EQ(recomputed(Ipv4Prefix{lan.network(), 30}), 1);
  EXPECT_EQ(recomputed(lan), 1);
  EXPECT_EQ(recomputed(Ipv4Prefix{lan.host(1), 32}), 1);
}

/// Chain r1-r2-r3-r4 under OSPF (cost 10 per hop) with a host at each end.
ConfigSet ospf_chain() {
  NetworkBuilder builder;
  for (const char* name : {"r1", "r2", "r3", "r4"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("r1", "r2");
  builder.link("r2", "r3");
  builder.link("r3", "r4");
  builder.host("h1", "r1");
  builder.host("h4", "r4");
  return builder.take();
}

// A fresh build handed an earlier simulation carries its OSPF vectors only
// when no added half-edge relaxes them: a fake r1–r4 link priced at the
// path cost (30) keeps every distance, one at the default cost (10)
// shortens both end-to-end routes. Either way the FIBs are a fresh build's.
TEST(CarriedVectors, AdoptedOnlyWhenNoAddedEdgeRelaxesThem) {
  for (const auto policy :
       {FakeLinkCostPolicy::kMinCost, FakeLinkCostPolicy::kDefault}) {
    ConfigSet configs = ospf_chain();
    const Simulation donor(configs);
    PrefixAllocator allocator;
    materialize_fake_link(*configs.find_router("r1"),
                          *configs.find_router("r4"), policy, 30, 30,
                          allocator, /*inter_as=*/false);
    const Simulation carried(configs, &donor);
    const Simulation fresh(configs);
    expect_same_fibs(carried, fresh);
    const IncrementalStats& stats = carried.incremental_stats();
    if (policy == FakeLinkCostPolicy::kMinCost) {
      EXPECT_EQ(stats.distance_vectors_reused, 2);
      EXPECT_EQ(stats.distance_vectors_recomputed, 0);
    } else {
      EXPECT_EQ(stats.distance_vectors_reused, 0);
      EXPECT_EQ(stats.distance_vectors_recomputed, 2);
    }
  }
}

// Removing a donor edge can lengthen distances, which no relaxation check
// sees, so nothing carries.
TEST(CarriedVectors, NoneCarriedWhenADonorEdgeIsGone) {
  ConfigSet configs = ospf_chain();
  const Simulation donor(configs);
  configs.find_router("r2")->interfaces.front().shutdown = true;  // r1–r2
  const Simulation carried(configs, &donor);
  expect_same_fibs(carried, Simulation(configs));
  EXPECT_EQ(carried.incremental_stats().distance_vectors_reused, 0);
}

/// Sum of counter `name` over the spans whose path is `path`.
std::uint64_t counter(const PipelineTrace& trace, const std::string& path,
                      const std::string& name) {
  for (const SpanMetrics& span : trace.metrics()) {
    if (span.path != path) continue;
    const auto it = span.counters.find(name);
    return it == span.counters.end() ? 0 : it->second;
  }
  return 0;
}

ConfMaskOptions paper_options(FakeLinkCostPolicy policy) {
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 3;
  options.cost_policy = policy;
  return options;
}

/// fnv1a64 of a bundle's canonical text, as 16 hex digits.
std::string bundle_digest(const ConfigSet& configs) {
  return hex64(fnv1a64(canonical_config_set_text(configs)));
}

// Min-cost pricing never shortens a distance (DESIGN §5), so both route
// stages carry every OSPF vector from the preprocess simulation and the
// run computes them once.
TEST(CarriedVectors, MinCostPipelineComputesEachVectorOnce) {
  const ConfigSet configs = make_scale_network(ScaleFamily::kWaxman, 316, 1);
  PipelineTrace trace;
  const PipelineResult result =
      run_confmask(configs, paper_options(FakeLinkCostPolicy::kMinCost));
  ASSERT_TRUE(result.functionally_equivalent);
  ASSERT_GT(result.stats.fake_intra_links, 0u);
  EXPECT_EQ(counter(trace, "preprocess", "vectors_computed"),
            configs.hosts.size());
  EXPECT_EQ(counter(trace, "route_equivalence/iteration", "vectors_computed"),
            0u);
  EXPECT_EQ(counter(trace, "route_anonymity", "vectors_computed"), 0u);
  EXPECT_EQ(counter(trace, "route_anonymity", "vectors_carried"),
            result.anonymized.hosts.size());
}

// Default-cost fake links undercut routes on Bics, so some vectors fail
// the relaxation check and are computed; the bundle and its (failing)
// verdict are still exactly those of a from-scratch rebuild sequence,
// pinned by digest.
TEST(CarriedVectors, DefaultCostPipelineRejectsSomeAndMatchesReference) {
  const ConfigSet configs = make_bics();
  PipelineTrace trace;
  const PipelineResult carried =
      run_confmask(configs, paper_options(FakeLinkCostPolicy::kDefault));
  EXPECT_GT(counter(trace, "route_equivalence/iteration", "vectors_computed"),
            0u);
  EXPECT_EQ(bundle_digest(carried.anonymized), "19fa75fcbd9d540d");
  EXPECT_FALSE(carried.functionally_equivalent);
}

// An OSPF network for the column patch: static routes (host prefixes and
// covering /16s) on every seventh router, and a three-router multi-access
// segment.
ConfigSet ospf_with_statics_and_segment(std::uint64_t seed) {
  ConfigSet configs = make_scale_network(ScaleFamily::kWaxman, 60, seed);
  const Ipv4Prefix segment = *Ipv4Prefix::parse("10.250.0.0/24");
  for (std::uint8_t i = 0; i < 3; ++i) {
    RouterConfig& router = configs.routers[i];
    InterfaceConfig iface;
    iface.name = "Ethernet90";
    iface.address = Ipv4Address{10, 250, 0, static_cast<std::uint8_t>(i + 1)};
    iface.prefix_length = 24;
    router.interfaces.push_back(iface);
    router.ospf->networks.push_back(OspfNetwork{segment, 0});
  }
  const Topology topo = Topology::build(configs);
  for (int r = 3; r < topo.router_count(); r += 7) {
    for (const int link_id : topo.links_of(r)) {
      const LinkEnd& far = topo.link(link_id).other_end(r);
      if (!topo.is_router(far.node)) continue;
      const auto& host = configs.hosts[static_cast<std::size_t>(r) %
                                       configs.hosts.size()];
      auto& statics = configs.routers[static_cast<std::size_t>(r)].static_routes;
      statics.push_back(StaticRoute{host.prefix(), far.address});
      statics.push_back(
          StaticRoute{Ipv4Prefix{host.prefix().network(), 16}, far.address});
      break;
    }
  }
  return configs;
}

/// Binds a new list denying `covering` and everything inside it
/// (`le 32`, so the shorter prefix denies the host routes under it) on
/// `router`'s interface toward `link`.
void deny_covered(ConfigSet& configs, const Topology& topo, int router,
                  int link, const Ipv4Prefix& covering, int serial) {
  RouterConfig& config = configs.routers[static_cast<std::size_t>(
      topo.node(router).config_index)];
  PrefixList list;
  list.name = "COVER" + std::to_string(serial);
  PrefixListEntry deny;
  deny.seq = 5;
  deny.prefix = covering;
  deny.le = 32;
  list.entries.push_back(deny);
  list.add_permit_all();
  config.prefix_lists.push_back(std::move(list));
  const DistributeList binding{config.prefix_lists.back().name,
                               topo.link(link).end_of(router).interface};
  if (config.ospf) config.ospf->distribute_lists.push_back(binding);
  if (config.rip) config.rip->distribute_lists.push_back(binding);
}

/// Chains `rounds` incremental builds over random filter adds and removes
/// (host prefixes, their /16s, and now and then a /16 `le 32` deny that
/// covers hosts), checking every (router, destination) FIB entry of each
/// against a fresh build. Returns the destinations the chain patched.
int expect_random_deltas_exact(ConfigSet configs, std::uint64_t seed,
                               int rounds) {
  auto current = std::make_shared<const Simulation>(configs);
  const auto topology = current->topology_ptr();
  const Topology& topo = *topology;
  FilterEditor editor(configs, topo);
  Rng rng(seed);
  struct Applied {
    int router;
    int link;
    Ipv4Prefix prefix;
  };
  std::vector<Applied> applied;
  int patched = 0;
  for (int round = 0; round < rounds; ++round) {
    SimulationDelta delta;
    for (int edit = 0; edit < 6; ++edit) {
      if (!applied.empty() && rng.chance(0.35)) {
        const std::size_t victim = rng.below(applied.size());
        const Applied undo = applied[victim];
        applied.erase(applied.begin() + static_cast<std::ptrdiff_t>(victim));
        if (editor.remove(undo.router, undo.link, undo.prefix)) {
          delta.record(undo.router, undo.prefix);
        }
        continue;
      }
      const int router = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(topo.router_count())));
      const auto& links = topo.links_of(router);
      if (links.empty()) continue;
      const int link = links[rng.below(links.size())];
      const Ipv4Prefix host_prefix =
          configs.hosts[rng.below(configs.hosts.size())].prefix();
      const Ipv4Prefix covering{host_prefix.network(), 16};
      if (rng.chance(0.15)) {
        deny_covered(configs, topo, router, link, covering, round * 8 + edit);
        delta.record(router, covering);
        continue;
      }
      const Ipv4Prefix prefix = rng.chance(0.25) ? covering : host_prefix;
      if (editor.add(router, link, prefix)) {
        delta.record(router, prefix);
        applied.push_back(Applied{router, link, prefix});
      }
    }
    auto next = std::make_shared<const Simulation>(configs, *current, delta);
    const Simulation fresh(configs);
    for (int r = 0; r < topo.router_count(); ++r) {
      for (const int host : topo.host_ids()) {
        EXPECT_EQ(next->fib(r, host), fresh.fib(r, host))
            << "round " << round << " router " << topo.node(r).name
            << " -> " << topo.node(host).name;
      }
    }
    patched += next->incremental_stats().destinations_patched;
    current = std::move(next);
  }
  return patched;
}

// Dirty link-state destinations without a BGP part are patched at the
// routers whose filters changed; every other destination is refilled.
// Either way each column must equal a fresh build's.
TEST(IncrementalSim, RandomDeltasMatchFreshBuildsColumnForColumn) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_GT(expect_random_deltas_exact(
                  ospf_with_statics_and_segment(seed), seed, 8),
              0)
        << "seed " << seed << ": the column patch never ran";
  }
  (void)expect_random_deltas_exact(
      make_scale_network(ScaleFamily::kMultiAs, 100, 2), 4, 6);
  EXPECT_EQ(expect_random_deltas_exact(
                make_scale_network(ScaleFamily::kWaxmanRip, 60, 3), 5, 6),
            0);
}

// After each incremental rebuild Algorithm 1 rescans only the
// destinations it recomputed. RIP networks need three and more
// iterations (a filter reshapes distances downstream), and every run must
// decide exactly as a full scan after from-scratch rebuilds did: the same
// iteration count and bundle digest, and a verified run.
TEST(IncrementalSim, RescanningRecomputedColumnsDecidesAsAFullScan) {
  const std::pair<int, std::string> full_scan[] = {
      {3, "d3f11ef4301f40fd"},
      {3, "633d7b25cf664186"},
      {4, "8ffb41b7fcbbf3f3"},
      {4, "e544b0dbb34c626f"}};
  int longest = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ConfigSet configs =
        make_scale_network(ScaleFamily::kWaxmanRip, 60, seed);
    ConfMaskOptions options;
    options.seed = seed;
    const PipelineResult incremental = run_confmask(configs, options);
    const auto& [iterations, bundle] = full_scan[seed - 1];
    EXPECT_EQ(incremental.stats.equivalence_iterations, iterations)
        << "seed " << seed;
    EXPECT_EQ(bundle_digest(incremental.anonymized), bundle)
        << "seed " << seed;
    EXPECT_TRUE(incremental.functionally_equivalent) << "seed " << seed;
    longest = std::max(longest, incremental.stats.equivalence_iterations);
  }
  EXPECT_GE(longest, 4);
}

/// Runs `edited` patched against `context` and compares Algorithm 1's
/// final simulation (the run's captured anonymity donor) with a fresh
/// build of the run's output, entry for entry on every host's column. The
/// options keep Algorithm 2 from placing filters (noise_p 0), so the output
/// is Algorithm 1's. Returns the run's stats.
PipelineStats expect_final_simulation_exact(const ConfigSet& edited,
                                            const ConfMaskOptions& options,
                                            const PatchContext& context) {
  PatchCapture capture;
  const PipelineResult patched =
      run_pipeline(edited, preprocess(edited, &context), options,
                   EquivalenceStrategy::kConfMask, &context, &capture);
  const auto finished = finish_capture(capture);
  EXPECT_NE(finished, nullptr);
  if (finished == nullptr || finished->anonymity == nullptr) return {};
  const Simulation& final_sim = *finished->anonymity;
  const Simulation fresh(patched.anonymized);
  const Topology& topo = fresh.topology();
  const Topology& stage = final_sim.topology();
  for (const int h : topo.host_ids()) {
    for (int r = 0; r < topo.router_count(); ++r) {
      EXPECT_EQ(final_sim.fib(stage.find_node(topo.node(r).name),
                              stage.find_node(topo.node(h).name)),
                fresh.fib(r, h))
          << "router " << topo.node(r).name << " -> host "
          << topo.node(h).name;
    }
  }
  return patched.stats;
}

/// Denies `denied` on every interface of `router` (its first only, with
/// `first_only`) through a new list.
void deny_on_interfaces(ConfigSet& configs, const std::string& router,
                        const Ipv4Prefix& denied, bool first_only = false) {
  RouterConfig* config = configs.find_router(router);
  ASSERT_NE(config, nullptr);
  PrefixList list;
  list.name = "EDIT";
  list.add_deny(denied);
  list.add_permit_all();
  config->prefix_lists.push_back(std::move(list));
  auto& bound = config->ospf ? config->ospf->distribute_lists
                             : config->rip->distribute_lists;
  for (const InterfaceConfig& iface : config->interfaces) {
    bound.push_back(DistributeList{"EDIT", iface.name});
    if (first_only) break;
  }
}

std::shared_ptr<const PatchContext> captured_context(
    const ConfigSet& base, const ConfMaskOptions& options) {
  PatchCapture capture;
  EXPECT_TRUE(run_pipeline_guarded(base, options, RetryPolicy{}, nullptr,
                                   nullptr, &capture)
                  .ok());
  return finish_capture(capture);
}

// A replayed Algorithm 1 seeds its final simulation from the captured one
// with the edit's dirty set. The edit cuts one router off a fake host's
// LAN, so that column must be recomputed, not taken from the donor.
TEST(EquivalenceReplayFinal, ReplayedRunMatchesAFreshBuild) {
  const ConfigSet base = canonicalize(make_uscarrier());
  ConfMaskOptions options;
  options.seed = 5;
  options.k_h = 2;
  options.noise_p = 0.0;
  const auto context = captured_context(base, options);
  ASSERT_NE(context, nullptr);
  ASSERT_FALSE(context->fake_hosts.empty());
  const FakeHostRecord& fake = context->fake_hosts.front();
  const Topology& topo = context->anonymity->topology();
  const int fake_id = topo.find_node(fake.name);
  // A router whose every route to the fake LAN leaves through one of its
  // own interfaces (not a fake link's, nor the gateway's delivery): the
  // edit's deny removes them all.
  std::string cut;
  for (const RouterConfig& router : base.routers) {
    const int r = topo.find_node(router.hostname);
    const auto own = [&](const NextHop& hop) {
      if (hop.neighbor >= topo.router_count()) return false;
      const std::string& name = topo.link(hop.link).end_of(r).interface;
      return std::any_of(
          router.interfaces.begin(), router.interfaces.end(),
          [&](const InterfaceConfig& iface) { return iface.name == name; });
    };
    const FibView hops = context->anonymity->fib(r, fake_id);
    if (!hops.empty() && std::all_of(hops.begin(), hops.end(), own)) {
      cut = router.hostname;
      break;
    }
  }
  ASSERT_FALSE(cut.empty());

  ConfigSet edited = base;
  deny_on_interfaces(edited, cut, fake.lan);
  edited = canonicalize(std::move(edited));
  const PipelineStats stats =
      expect_final_simulation_exact(edited, options, *context);
  EXPECT_TRUE(stats.equivalence_replayed);
}

// A deny of one real host's prefix on a RIP network reroutes it over
// several iterations: Algorithm 1 runs in full and rebuilds as it goes.
TEST(EquivalenceReplayFinal, FullRunMatchesAFreshBuild) {
  const ConfigSet base =
      canonicalize(make_scale_network(ScaleFamily::kWaxmanRip, 60, 2));
  ConfMaskOptions options;
  options.seed = 2;
  options.noise_p = 0.0;
  const auto context = captured_context(base, options);
  ASSERT_NE(context, nullptr);
  ConfigSet edited = base;
  deny_on_interfaces(edited, base.routers[3].hostname, base.hosts[1].prefix(),
                     /*first_only=*/true);
  edited = canonicalize(std::move(edited));
  const PipelineStats stats =
      expect_final_simulation_exact(edited, options, *context);
  EXPECT_FALSE(stats.equivalence_replayed);
  EXPECT_GT(stats.equivalence_iterations, 2);
}

/// Times a span with this path was opened.
std::uint64_t span_count(const PipelineTrace& trace, const std::string& path) {
  for (const SpanMetrics& span : trace.metrics()) {
    if (span.path == path) return span.count;
  }
  return 0;
}

// Algorithm 2 starts from Algorithm 1's final simulation: a cold run
// builds one simulation in preprocess, one per Algorithm 1 iteration and
// one per rollback round, and the route-anonymity stage no entry of its
// own: 5 on Bics.
TEST(StageHandover, ColdRunBuildsNoAnonymityEntry) {
  PipelineTrace trace;
  ConfMaskOptions options;
  options.seed = 3;
  const GuardedPipelineResult run = run_pipeline_guarded(make_bics(), options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.result->stats.simulations, 5u);
  EXPECT_EQ(counter(trace, "route_equivalence", "simulations"),
            static_cast<std::uint64_t>(
                run.result->stats.equivalence_iterations));
  EXPECT_EQ(counter(trace, "route_anonymity", "simulations"),
            span_count(trace, "route_anonymity/rollback_round"));
}

/// Runs Step 1, the fake hosts and Algorithm 1 on `original` as the
/// pipeline does (default options), and checks the simulation Algorithm 1
/// returns against a fresh build of its configs on every column, and the
/// one Algorithm 2 hands back against a fresh build of the final configs on
/// every real destination's column (its fake-host columns may predate the
/// last rollbacks).
void expect_stage_simulations_exact(const ConfigSet& original,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  const ConfMaskOptions options;
  const Preprocessed preprocessed = preprocess(original, nullptr);
  const OriginalIndex& index = *preprocessed.index;
  ConfigSet configs = original;
  PrefixAllocator allocator;
  for (const Ipv4Prefix& prefix : original.used_prefixes()) {
    allocator.reserve(prefix);
  }
  Rng rng(options.seed);
  (void)anonymize_topology(configs, preprocessed.sim.get(), options.k_r,
                           options.cost_policy, rng, allocator);
  const std::vector<std::string> fake_hosts =
      add_fake_hosts(configs, index, options.k_h, allocator);
  RouteEquivalenceOutcome equivalence = enforce_route_equivalence(
      configs, index, nullptr, preprocessed.sim.get());
  ASSERT_NE(equivalence.simulation, nullptr);
  expect_same_fibs(*equivalence.simulation, Simulation(configs));

  std::shared_ptr<Simulation> final_simulation;
  (void)anonymize_routes(configs, fake_hosts, options.noise_p, rng,
                         std::move(equivalence.simulation),
                         &final_simulation);
  ASSERT_NE(final_simulation, nullptr);
  const Simulation fresh(configs);
  std::vector<int> real_destinations;
  for (const int host : fresh.topology().host_ids()) {
    if (index.real_hosts().count(fresh.topology().node(host).name) != 0) {
      real_destinations.push_back(host);
    }
  }
  ASSERT_FALSE(real_destinations.empty());
  expect_same_fibs(*final_simulation, fresh, &real_destinations);
}

// The live reference for the two stages' hand-overs: what Algorithm 1
// returns and what Algorithm 2 hands to verification are checked against
// simulations built from the configs alone.
TEST(StageHandover, StageSimulationsMatchFreshBuildsOnEvaluationNetworks) {
  for (const EvalNetwork& network : evaluation_networks()) {
    expect_stage_simulations_exact(network.configs, "network " + network.id);
  }
}

TEST(StageHandover, StageSimulationsMatchFreshBuildsOnScaleFamilies) {
  for (const ScaleFamily family :
       {ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
        ScaleFamily::kPreferentialAttachment}) {
    expect_stage_simulations_exact(make_scale_network(family, 316, 1),
                                   std::string(scale_family_name(family)) +
                                       " 316");
  }
}

TEST(IncrementalSim, ChainedIncrementalStepsStayExact) {
  // Algorithm 1 applies filters over many iterations, each re-simulating
  // incrementally from the last — drift would compound, so chain several
  // edits and compare against a fresh build only at the end.
  auto configs = make_figure2();
  auto current = std::make_unique<const Simulation>(configs);
  const auto hosts = current->topology().host_ids();
  int edits = 0;
  for (const int host : hosts) {
    SimulationDelta delta;
    if (!deny_first_transit_hop(configs, *current, host, delta)) continue;
    current = std::make_unique<const Simulation>(configs, *current, delta);
    ++edits;
  }
  ASSERT_GT(edits, 1);
  const Simulation fresh(configs);
  expect_same_fibs(*current, fresh);
}

/// What FilterEditor::add has always done to a scope's list, rescanning
/// it each time: refuse an existing deny, drop every permit-all, append the
/// deny and a fresh permit-all at the next seqs.
bool rescanning_add(PrefixList& list, const Ipv4Prefix& dest) {
  for (const PrefixListEntry& entry : list.entries) {
    if (!entry.permit && entry.prefix == dest) return false;
  }
  std::erase_if(list.entries, [](const PrefixListEntry& entry) {
    return entry.permit && entry.prefix == Ipv4Prefix{Ipv4Address{0u}, 0} &&
           entry.le == 32;
  });
  list.add_deny(dest);
  list.add_permit_all();
  return true;
}

TEST(FilterEditor, TrackedAddsMatchTheRescanningDefinition) {
  // OSPF only, so every scope is the IGP list of the router's interface.
  ConfigSet configs = make_scale_network(ScaleFamily::kWaxman, 30, 5);
  const Topology topo = Topology::build(configs);
  // Some scopes start with lists the editor did not write: permit-alls
  // ahead of other entries (one with ge), a lone permit-all below the
  // highest seq, two permit-alls ending the list, and permits that are
  // not permit-alls.
  const Ipv4Prefix any{Ipv4Address{0u}, 0};
  const Ipv4Prefix ten{Ipv4Address{10, 0, 0, 0}, 8};
  const Ipv4Prefix used{Ipv4Address{10, 250, 1, 0}, 24};
  const std::vector<std::vector<PrefixListEntry>> seeded = {
      {{12, true, any, 32, std::nullopt},
       {3, false, used, std::nullopt, std::nullopt},
       {30, true, ten, 24, std::nullopt},
       {50, true, any, 32, 8},
       {40, false, ten, std::nullopt, std::nullopt}},
      {{5, false, used, std::nullopt, std::nullopt},
       {100, true, ten, std::nullopt, std::nullopt},
       {7, true, any, 32, std::nullopt}},
      {{20, true, ten, 24, std::nullopt},
       {15, true, any, 32, std::nullopt},
       {60, true, any, 32, std::nullopt}}};
  for (int router = 0; router < 3; ++router) {
    const int link = topo.links_of(router).front();
    configs.find_router(topo.node(router).name)
        ->ensure_prefix_list(
            igp_filter_name(topo.link(link).end_of(router).interface))
        .entries = seeded[static_cast<std::size_t>(router)];
  }
  ConfigSet reference = configs;
  FilterEditor editor(configs, topo);
  Rng rng(17);
  for (int step = 0; step < 3000; ++step) {
    const int router = static_cast<int>(rng.below(3));
    const auto& links = topo.links_of(router);
    ASSERT_FALSE(links.empty());
    const int link = links[static_cast<std::size_t>(rng.below(links.size()))];
    const Ipv4Prefix dest{
        Ipv4Address{10, 250, static_cast<std::uint8_t>(rng.below(12)), 0},
        24};
    const std::string name =
        igp_filter_name(topo.link(link).end_of(router).interface);
    RouterConfig& expected = *reference.find_router(topo.node(router).name);
    // Adds outnumber removes 3:1, so lists grow long between the removes
    // that send the next add back through a rescan.
    bool want = false;
    bool got = false;
    if (rng.below(4) != 0) {
      want = rescanning_add(expected.ensure_prefix_list(name), dest);
      got = editor.add(router, link, dest);
    } else {
      PrefixList* list = expected.find_prefix_list(name);
      want = list != nullptr &&
             std::erase_if(list->entries, [&](const PrefixListEntry& entry) {
               return !entry.permit && entry.prefix == dest;
             }) != 0;
      got = editor.remove(router, link, dest);
    }
    ASSERT_EQ(got, want) << "step " << step;
    const PrefixList* actual =
        configs.find_router(topo.node(router).name)->find_prefix_list(name);
    const PrefixList* wanted = expected.find_prefix_list(name);
    ASSERT_EQ(actual == nullptr ? std::vector<PrefixListEntry>{}
                                : actual->entries,
              wanted == nullptr ? std::vector<PrefixListEntry>{}
                                : wanted->entries)
        << "step " << step;
  }
}

}  // namespace
}  // namespace confmask
