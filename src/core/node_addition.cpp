#include "src/core/node_addition.hpp"

#include <algorithm>
#include <cctype>
#include <map>

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

  const Topology& topo = original.topology();
  std::vector<std::string> originals;  // name-sorted: the RNG picks by index
  for (int r = 0; r < topo.router_count(); ++r) {
    originals.push_back(topo.node(r).name);
  }
  std::sort(originals.begin(), originals.end());

  for (int i = 0; i < options.fake_routers; ++i) {
    // Template: a random existing ORIGINAL router; the fake router joins
    // its AS and copies its protocol/boilerplate shape. Capture what we
    // need BEFORE push_back below invalidates references into the vector.
    const std::string template_name = rng.pick(originals);
    const bool tmpl_has_bgp =
        configs.find_router(template_name)->bgp.has_value();
    const int tmpl_as =
        tmpl_has_bgp ? configs.find_router(template_name)->bgp->local_as : -1;

    RouterConfig fake;
    fake.hostname = fresh_router_name(configs);
    {
      const auto& tmpl = *configs.find_router(template_name);
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
    }
    const std::string fake_name = fake.hostname;
    outcome.fake_routers.push_back(fake_name);
    configs.routers.push_back(std::move(fake));

    // Attachment targets: distinct routers of the template's AS.
    std::vector<std::string> candidates;
    for (const auto& router : configs.routers) {
      if (router.hostname == fake_name) continue;
      const bool same_as =
          (!tmpl_has_bgp && !router.bgp) ||
          (tmpl_has_bgp && router.bgp && router.bgp->local_as == tmpl_as);
      if (same_as && std::binary_search(originals.begin(), originals.end(),
                                        router.hostname)) {
        candidates.push_back(router.hostname);
      }
    }
    rng.shuffle(candidates);
    const int attach = std::min<int>(options.links_per_fake,
                                     static_cast<int>(candidates.size()));
    std::vector<std::string> neighbors(candidates.begin(),
                                       candidates.begin() + attach);

    // Link cost: no path through the fake router may be strictly shorter
    // than an original path between its neighbors, in either direction
    // (OSPF costs are per outgoing interface, so D(a→b) may differ from
    // D(b→a)).
    long max_pair = 0;
    for (const auto& from : neighbors) {
      std::vector<int> targets;
      for (const auto& to : neighbors) {
        if (from != to) targets.push_back(topo.find_node(to));
      }
      for (const long d :
           original.igp_distances(topo.find_node(from), targets)) {
        max_pair = std::max(max_pair, d);
      }
    }
    const int cost = std::max<long>(1, (max_pair + 1) / 2);

    const auto igp_cost = [&](const RouterConfig& router) {
      return router.ospf || router.rip ? static_cast<long>(cost) : -1L;
    };
    for (const auto& neighbor_name : neighbors) {
      auto& fake_router = *configs.find_router(fake_name);
      auto& neighbor = *configs.find_router(neighbor_name);
      const bool bare = fake_router.interfaces.empty();
      materialize_fake_link(fake_router, neighbor, FakeLinkCostPolicy::kMinCost,
                            igp_cost(fake_router), igp_cost(neighbor),
                            allocator, /*inter_as=*/false);
      // A fresh fake router has no interface of its own to mimic yet.
      if (bare) {
        fake_router.interfaces.back().extra_lines =
            neighbor.interfaces.front().extra_lines;
      }
      outcome.links.emplace_back(fake_name, neighbor_name);
    }

    // A terminating fake host keeps the fake router out of the
    // zero-traffic attack's net.
    if (options.attach_fake_host) {
      auto& fake_router = *configs.find_router(fake_name);
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
