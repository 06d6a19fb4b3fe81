#include "src/core/node_addition.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>

#include "src/core/topology_anonymization.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {

namespace {

/// Continues the network's dominant hostname pattern: the most common
/// leading alphabetic stem, followed by the next free number.
std::string fresh_router_name(const ConfigSet& configs) {
  std::map<std::string, int> stems;
  for (const auto& router : configs.routers) {
    std::string stem;
    for (const char c : router.hostname) {
      if (std::isdigit(static_cast<unsigned char>(c))) break;
      stem += c;
    }
    if (!stem.empty()) ++stems[stem];
  }
  std::string best = "r";
  int best_count = 0;
  for (const auto& [stem, count] : stems) {
    if (count > best_count) {
      best = stem;
      best_count = count;
    }
  }
  for (int i = static_cast<int>(configs.routers.size());; ++i) {
    const std::string candidate = best + std::to_string(i);
    if (configs.find_router(candidate) == nullptr) return candidate;
  }
}

}  // namespace

NodeAdditionOutcome add_fake_routers(ConfigSet& configs,
                                     const Simulation& original,
                                     const NodeAdditionOptions& options,
                                     Rng& rng, PrefixAllocator& allocator) {
  NodeAdditionOutcome outcome;
  if (options.fake_routers <= 0 || configs.routers.empty()) return outcome;

  // An original router's node id is its index in configs.routers: the fake
  // routers are appended after the originals.
  const Topology& topo = original.topology();
  std::vector<int> originals(static_cast<std::size_t>(topo.router_count()));
  std::iota(originals.begin(), originals.end(), 0);
  // Name-sorted: the RNG picks by index.
  std::sort(originals.begin(), originals.end(), [&topo](int a, int b) {
    return topo.node(a).name < topo.node(b).name;
  });
  const auto router = [&configs](int id) -> RouterConfig& {
    return configs.routers[static_cast<std::size_t>(id)];
  };

  for (int i = 0; i < options.fake_routers; ++i) {
    // Template: a random existing ORIGINAL router; the fake router joins
    // its AS and copies its protocol/boilerplate shape.
    const RouterConfig& tmpl = router(rng.pick(originals));
    const bool tmpl_has_bgp = tmpl.bgp.has_value();
    const int tmpl_as = tmpl_has_bgp ? tmpl.bgp->local_as : -1;

    RouterConfig fake;
    fake.hostname = fresh_router_name(configs);
    fake.extra_lines = tmpl.extra_lines;
    if (tmpl.ospf) {
      fake.ospf = OspfConfig{};
      fake.ospf->process_id = tmpl.ospf->process_id;
    }
    if (tmpl.rip) {
      fake.rip = RipConfig{};
      fake.rip->version = tmpl.rip->version;
    }
    if (tmpl.bgp) {
      fake.bgp = BgpConfig{};
      fake.bgp->local_as = tmpl.bgp->local_as;
    }
    const std::string fake_name = fake.hostname;
    outcome.fake_routers.push_back(fake_name);
    // Invalidates `tmpl`.
    configs.routers.push_back(std::move(fake));
    const int fake_id = static_cast<int>(configs.routers.size()) - 1;

    // Attachment targets: distinct original routers of the template's AS,
    // in id order.
    std::vector<int> candidates;
    for (int r = 0; r < topo.router_count(); ++r) {
      const RouterConfig& config = router(r);
      const bool same_as =
          (!tmpl_has_bgp && !config.bgp) ||
          (tmpl_has_bgp && config.bgp && config.bgp->local_as == tmpl_as);
      if (same_as) candidates.push_back(r);
    }
    rng.shuffle(candidates);
    const int attach = std::min<int>(options.links_per_fake,
                                     static_cast<int>(candidates.size()));
    const std::vector<int> neighbors(candidates.begin(),
                                     candidates.begin() + attach);

    // Link cost: no path through the fake router may be strictly shorter
    // than an original path between its neighbors, in either direction
    // (OSPF costs are per outgoing interface, so D(a→b) may differ from
    // D(b→a)).
    long max_pair = 0;
    for (const int from : neighbors) {
      std::vector<int> targets;
      for (const int to : neighbors) {
        if (from != to) targets.push_back(to);
      }
      for (const long d : original.igp_distances(from, targets)) {
        max_pair = std::max(max_pair, d);
      }
    }
    const int cost = std::max<long>(1, (max_pair + 1) / 2);

    const auto igp_cost = [&](const RouterConfig& config) {
      return config.ospf || config.rip ? static_cast<long>(cost) : -1L;
    };
    RouterConfig& fake_router = router(fake_id);
    for (const int neighbor_id : neighbors) {
      RouterConfig& neighbor = router(neighbor_id);
      const bool bare = fake_router.interfaces.empty();
      materialize_fake_link(fake_router, neighbor, FakeLinkCostPolicy::kMinCost,
                            igp_cost(fake_router), igp_cost(neighbor),
                            allocator, /*inter_as=*/false);
      // A fresh fake router has no interface of its own to mimic yet.
      if (bare) {
        fake_router.interfaces.back().extra_lines =
            neighbor.interfaces.front().extra_lines;
      }
      outcome.links.emplace_back(fake_name, neighbor.hostname);
    }

    // A terminating fake host keeps the fake router out of the
    // zero-traffic attack's net.
    if (options.attach_fake_host) {
      const Ipv4Prefix lan = allocator.allocate_host_lan();
      fake_router.add_lookalike_interface(lan.host(1), 24,
                                          "to-" + fake_name + "h");
      if (fake_router.ospf) {
        fake_router.ospf->networks.push_back(OspfNetwork{lan, 0});
      }
      if (fake_router.bgp) fake_router.bgp->networks.push_back(lan);

      HostConfig host;
      host.hostname = fake_name + "h";
      host.address = lan.host(10);
      host.prefix_length = 24;
      host.gateway = lan.host(1);
      if (!configs.hosts.empty()) {
        host.extra_lines = configs.hosts.front().extra_lines;
      }
      outcome.fake_hosts.push_back(host.hostname);
      configs.hosts.push_back(std::move(host));
    }
  }
  return outcome;
}

}  // namespace confmask
