// The preprocessing snapshot: id-keyed queries, the watch-mode splice, and
// self-containment (a PatchContext keeps its index after the run's
// simulations and working configs are gone).
#include "src/core/original_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/filters.hpp"
#include "src/core/patch_mode.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

/// Every answer the index gives, over all (router, host, node) next-hop
/// queries and all router pairs, in a fixed order.
std::vector<bool> all_answers(const OriginalIndex& index) {
  const Topology& topo = index.topology();
  std::vector<bool> answers;
  for (int r = 0; r < topo.router_count(); ++r) {
    for (int other = 0; other < topo.router_count(); ++other) {
      answers.push_back(index.is_original_edge(r, other));
    }
    for (int host : topo.host_ids()) {
      for (int next = 0; next < topo.node_count(); ++next) {
        answers.push_back(index.is_original_next_hop(r, host, next));
      }
    }
  }
  return answers;
}

TEST(OriginalIndex, AnswersFromTheOriginalFibsAndAdjacency) {
  const ConfigSet original = make_figure2();
  const Simulation sim(original);
  const OriginalIndex index(sim);
  const Topology& topo = sim.topology();
  for (int r = 0; r < topo.router_count(); ++r) {
    for (int host : topo.host_ids()) {
      for (int next = 0; next < topo.node_count(); ++next) {
        bool in_fib = false;
        for (const NextHop& hop : sim.fib(r, host)) {
          in_fib = in_fib || hop.neighbor == next;
        }
        EXPECT_EQ(index.is_original_next_hop(r, host, next), in_fib);
      }
    }
    for (int other = 0; other < topo.router_count(); ++other) {
      bool adjacent = false;
      for (int link : topo.links_of(r)) {
        adjacent = adjacent || topo.link(link).other_end(r).node == other;
      }
      EXPECT_EQ(index.is_original_edge(r, other), adjacent);
    }
  }
  // Nodes the original lacks map to -1, and -1 is never original.
  EXPECT_FALSE(index.is_original_edge(-1, 0));
  EXPECT_FALSE(index.is_original_next_hop(0, topo.host_ids().front(), -1));
}

TEST(OriginalIndex, SplicedIndexAnswersLikeAFullSnapshot) {
  // A filter-only edit that reroutes traffic: deny one host's prefix on
  // the first transit hop some router uses towards it.
  const auto base =
      std::make_shared<const ConfigSet>(make_scale_network(
          ScaleFamily::kWaxman, 100, 4));
  PatchContext context;
  context.original.configs = base;
  context.original.sim = std::make_shared<const Simulation>(*base);
  const OriginalIndex before(*context.original.sim);

  ConfigSet edited = *base;
  {
    const Simulation& sim = *context.original.sim;
    const Topology& topo = sim.topology();
    FilterEditor editor(edited, topo);
    bool denied = false;
    for (int r = 0; r < topo.router_count() && !denied; ++r) {
      for (int host : topo.host_ids()) {
        const FibView hops = sim.fib(r, host);
        if (hops.empty() || hops.front().neighbor == host) continue;
        denied = editor.add(r, hops.front().link, sim.host_prefix(host));
        if (denied) break;
      }
    }
    ASSERT_TRUE(denied);
  }

  const OriginalReusePlan plan = plan_original_reuse(edited, context);
  ASSERT_NE(plan.sim, nullptr);
  ASSERT_TRUE(plan.index_reusable);
  ASSERT_FALSE(plan.dirty.empty());
  const OriginalIndex spliced(*plan.sim, before, plan.dirty);
  const Simulation fresh(edited);
  const OriginalIndex full(fresh);

  // Same node ids on both sides, so every query compares one to one.
  ASSERT_EQ(spliced.topology().node_count(), full.topology().node_count());
  for (int id = 0; id < full.topology().node_count(); ++id) {
    ASSERT_EQ(spliced.topology().node(id).name,
              full.topology().node(id).name);
  }
  const auto expected = all_answers(full);
  EXPECT_EQ(all_answers(spliced), expected);
  EXPECT_EQ(spliced.data_plane(), full.data_plane());
  EXPECT_EQ(spliced.flow_count(), full.flow_count());
  EXPECT_EQ(spliced.real_hosts(), full.real_hosts());
  // The edit moved some FIB entry, so the pre-edit answers differ.
  EXPECT_NE(all_answers(before), expected);
  // Only the dirty destinations' flow columns were walked again.
  const Topology& topo = full.topology();
  int rewalked = 0;
  for (int host : topo.host_ids()) {
    const auto column = static_cast<std::size_t>(host - topo.router_count());
    const bool dirty = std::any_of(
        plan.dirty.begin(), plan.dirty.end(), [&](const Ipv4Prefix& region) {
          return region.overlaps(fresh.host_prefix(host));
        });
    EXPECT_EQ(spliced.flow_columns()[column] == before.flow_columns()[column],
              !dirty)
        << topo.node(host).name;
    rewalked += dirty ? 1 : 0;
  }
  EXPECT_GT(rewalked, 0);
  EXPECT_LT(rewalked, static_cast<int>(topo.host_ids().size()));
}

TEST(OriginalIndex, SpliceSharesEveryFlowColumnWhenTheEditMissesEveryHost) {
  // A filter-only edit whose denied prefix belongs to no host: nothing is
  // dirty, so the spliced index walks no flow and copies none.
  const auto base = std::make_shared<const ConfigSet>(
      make_scale_network(ScaleFamily::kWaxman, 100, 4));
  PatchContext context;
  context.original.configs = base;
  context.original.sim = std::make_shared<const Simulation>(*base);
  const OriginalIndex before(*context.original.sim);

  ConfigSet edited = *base;
  {
    const Topology& topo = context.original.sim->topology();
    FilterEditor editor(edited, topo);
    const int link = topo.links_of(0).front();
    ASSERT_TRUE(editor.add(0, link, *Ipv4Prefix::parse("203.0.113.0/24")));
  }
  const OriginalReusePlan plan = plan_original_reuse(edited, context);
  ASSERT_NE(plan.sim, nullptr);
  ASSERT_TRUE(plan.index_reusable);
  ASSERT_FALSE(plan.dirty.empty());
  const OriginalIndex spliced(*plan.sim, before, plan.dirty);
  ASSERT_EQ(spliced.flow_columns().size(), before.flow_columns().size());
  for (std::size_t i = 0; i < before.flow_columns().size(); ++i) {
    EXPECT_EQ(spliced.flow_columns()[i], before.flow_columns()[i]) << i;
  }
  const Simulation fresh(edited);
  EXPECT_EQ(spliced.data_plane(), OriginalIndex(fresh).data_plane());
}

TEST(OriginalIndex, OutlivesTheSimulationAndConfigsItWasBuiltFrom) {
  std::unique_ptr<OriginalIndex> index;
  std::vector<bool> answers;
  DataPlane data_plane;
  {
    auto configs = std::make_unique<ConfigSet>(make_bics());
    auto sim = std::make_unique<Simulation>(*configs);
    index = std::make_unique<OriginalIndex>(*sim);
    answers = all_answers(*index);
    data_plane = sim->extract_data_plane();
    // Destroy the sources before the index is queried again: any pointer
    // into them would now dangle (and fail under AddressSanitizer).
    sim.reset();
    configs.reset();
  }
  EXPECT_EQ(all_answers(*index), answers);
  EXPECT_EQ(index->data_plane(), data_plane);
  const ConfigSet rebuilt = make_bics();
  const Topology topo = Topology::build(rebuilt);
  const std::vector<int> ids = index->original_ids(topo);
  for (int id = 0; id < topo.node_count(); ++id) {
    EXPECT_EQ(ids[static_cast<std::size_t>(id)], id);
  }
}

}  // namespace
}  // namespace confmask
