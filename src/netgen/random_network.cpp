#include "src/netgen/random_network.hpp"

#include <string>
#include <vector>

#include "src/netgen/builder.hpp"
#include "src/util/rng.hpp"

namespace confmask {

namespace {

std::string router_name(int i) {
  std::string name = "r";
  name += std::to_string(i);
  return name;
}

std::optional<int> maybe_cost(Rng& rng, double probability) {
  if (!rng.chance(probability)) return std::nullopt;
  return static_cast<int>(rng.range(1, 20));
}

}  // namespace

ConfigSet make_random_network(const RandomNetworkOptions& options,
                              std::uint64_t seed) {
  Rng rng(seed);
  NetworkBuilder builder;
  const int routers =
      static_cast<int>(rng.range(options.min_routers, options.max_routers));
  const int hosts =
      static_cast<int>(rng.range(options.min_hosts, options.max_hosts));

  enum class Mode { kOspf, kRip, kBgp };
  Mode mode = Mode::kOspf;
  if (options.allow_bgp && rng.chance(0.35)) {
    mode = Mode::kBgp;
  } else if (options.allow_rip && rng.chance(0.5)) {
    mode = Mode::kRip;
  }

  if (mode == Mode::kBgp) {
    // Multi-AS: every AS runs OSPF internally and eBGP at its borders.
    const int as_count = static_cast<int>(
        rng.range(2, std::max(2, std::min(options.max_as_count, routers))));
    std::vector<int> as_of(static_cast<std::size_t>(routers));
    for (int i = 0; i < routers; ++i) {
      // The first `as_count` routers pin one router per AS so none is
      // empty; the rest land anywhere.
      as_of[static_cast<std::size_t>(i)] =
          i < as_count ? i : static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(as_count)));
    }
    for (int i = 0; i < routers; ++i) {
      builder.router(router_name(i));
      builder.enable_ospf(router_name(i));
      builder.enable_bgp(router_name(i),
                         100 + as_of[static_cast<std::size_t>(i)]);
    }
    // Intra-AS spanning trees + extra intra-AS links.
    std::vector<std::vector<int>> members(static_cast<std::size_t>(as_count));
    for (int i = 0; i < routers; ++i) {
      members[static_cast<std::size_t>(as_of[static_cast<std::size_t>(i)])]
          .push_back(i);
    }
    for (const auto& as_members : members) {
      for (std::size_t k = 1; k < as_members.size(); ++k) {
        const int peer = as_members[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(k)))];
        builder.link(router_name(as_members[k]), router_name(peer),
                     maybe_cost(rng, options.random_cost_probability),
                     maybe_cost(rng, options.random_cost_probability));
      }
      const int extra = static_cast<int>(
          options.extra_link_factor * static_cast<double>(as_members.size()) /
          2.0);
      for (int e = 0; e < extra && as_members.size() >= 2; ++e) {
        const int a = as_members[static_cast<std::size_t>(
            rng.below(as_members.size()))];
        const int b = as_members[static_cast<std::size_t>(
            rng.below(as_members.size()))];
        if (a == b) continue;
        builder.link(router_name(a), router_name(b),
                     maybe_cost(rng, options.random_cost_probability),
                     maybe_cost(rng, options.random_cost_probability));
      }
    }
    // Chain the ASes so the AS graph is connected, then sprinkle extra
    // inter-AS sessions (possibly parallel ones — a legitimate stressor).
    for (int as = 1; as < as_count; ++as) {
      const int prev = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(as)));
      const auto& from = members[static_cast<std::size_t>(as)];
      const auto& to = members[static_cast<std::size_t>(prev)];
      builder.ebgp_link(
          router_name(from[static_cast<std::size_t>(rng.below(from.size()))]),
          router_name(to[static_cast<std::size_t>(rng.below(to.size()))]));
    }
    const int extra_sessions = static_cast<int>(rng.below(3));
    for (int e = 0; e < extra_sessions; ++e) {
      const int a = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(routers)));
      const int b = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(routers)));
      if (a == b ||
          as_of[static_cast<std::size_t>(a)] ==
              as_of[static_cast<std::size_t>(b)]) {
        continue;
      }
      builder.ebgp_link(router_name(a), router_name(b));
    }
  } else {
    for (int i = 0; i < routers; ++i) {
      builder.router(router_name(i));
      if (mode == Mode::kRip) {
        builder.enable_rip(router_name(i));
      } else {
        builder.enable_ospf(router_name(i));
      }
    }
    // Random spanning tree, then extra links (parallel links allowed).
    for (int i = 1; i < routers; ++i) {
      const int peer =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(i)));
      builder.link(router_name(i), router_name(peer),
                   maybe_cost(rng, options.random_cost_probability),
                   maybe_cost(rng, options.random_cost_probability));
    }
    const int extra = static_cast<int>(options.extra_link_factor *
                                       static_cast<double>(routers));
    for (int e = 0; e < extra; ++e) {
      const int a =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(routers)));
      const int b =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(routers)));
      if (a == b) continue;
      builder.link(router_name(a), router_name(b),
                   maybe_cost(rng, options.random_cost_probability),
                   maybe_cost(rng, options.random_cost_probability));
    }
  }

  for (int h = 0; h < hosts; ++h) {
    std::string host = "h";
    host += std::to_string(h);
    builder.host(host,
                 router_name(static_cast<int>(
                     rng.below(static_cast<std::uint64_t>(routers)))));
  }
  return builder.take();
}

}  // namespace confmask
