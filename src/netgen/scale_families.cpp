#include "src/netgen/scale_families.hpp"

#include <algorithm>
#include <cmath>
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

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Wires `members` (global router indices) into a connected Waxman-shaped
/// subgraph: a locality-biased spanning tree (each new node attaches to the
/// nearest of a few random predecessors — O(R) instead of the textbook
/// O(R²) all-pairs scan, same geometric character), then rejection-sampled
/// extra links with the Waxman acceptance probability.
void wire_waxman(NetworkBuilder& builder, Rng& rng,
                 const std::vector<int>& members, double alpha, double beta,
                 double extra_link_factor, double random_cost_probability) {
  const std::size_t count = members.size();
  if (count < 2) return;
  std::vector<Point> pos(count);
  for (auto& p : pos) p = Point{rng.uniform(), rng.uniform()};

  const auto add_link = [&](std::size_t a, std::size_t b) {
    builder.link(router_name(members[a]), router_name(members[b]),
                 maybe_cost(rng, random_cost_probability),
                 maybe_cost(rng, random_cost_probability));
  };

  for (std::size_t i = 1; i < count; ++i) {
    std::size_t best = static_cast<std::size_t>(rng.below(i));
    const int candidates = static_cast<int>(std::min<std::size_t>(i, 8));
    for (int c = 1; c < candidates; ++c) {
      const std::size_t j = static_cast<std::size_t>(rng.below(i));
      if (distance(pos[j], pos[i]) < distance(pos[best], pos[i])) best = j;
    }
    add_link(i, best);
  }

  const auto extra = static_cast<long>(
      extra_link_factor * static_cast<double>(count));
  const double scale = beta * std::sqrt(2.0);  // beta * max distance
  long added = 0;
  // Bounded rejection sampling: sparse placements stop at the attempt cap
  // instead of spinning (the tree above already guarantees connectivity).
  for (long attempt = 0; added < extra && attempt < 20 * extra; ++attempt) {
    const auto a = static_cast<std::size_t>(rng.below(count));
    const auto b = static_cast<std::size_t>(rng.below(count));
    if (a == b) continue;
    if (!rng.chance(alpha * std::exp(-distance(pos[a], pos[b]) / scale))) {
      continue;
    }
    add_link(a, b);
    ++added;
  }
}

void attach_hosts(NetworkBuilder& builder, Rng& rng, int routers,
                  int hosts) {
  for (int h = 0; h < hosts; ++h) {
    std::string host = "h";
    host += std::to_string(h);
    builder.host(host,
                 router_name(static_cast<int>(
                     rng.below(static_cast<std::uint64_t>(routers)))));
  }
}

}  // namespace

int default_scale_hosts(int routers) {
  return std::clamp(routers / 25, 8, 400);
}

ConfigSet make_waxman_network(const WaxmanOptions& options,
                              std::uint64_t seed) {
  Rng rng(seed);
  NetworkBuilder builder;
  const int routers = std::max(2, options.routers);
  for (int i = 0; i < routers; ++i) {
    builder.router(router_name(i));
    if (options.rip) {
      builder.enable_rip(router_name(i));
    } else {
      builder.enable_ospf(router_name(i));
    }
  }
  std::vector<int> members(static_cast<std::size_t>(routers));
  for (int i = 0; i < routers; ++i) members[static_cast<std::size_t>(i)] = i;
  wire_waxman(builder, rng, members, options.alpha, options.beta,
              options.extra_link_factor, options.random_cost_probability);
  attach_hosts(builder, rng, routers,
               options.hosts >= 0 ? options.hosts
                                  : default_scale_hosts(routers));
  return builder.take();
}

ConfigSet make_multi_as_network(const MultiAsOptions& options,
                                std::uint64_t seed) {
  Rng rng(seed);
  NetworkBuilder builder;
  const int routers = std::max(4, options.routers);
  const int as_count =
      options.as_count >= 2
          ? std::min(options.as_count, routers / 2)
          : std::clamp(routers / 250, 2, 16);

  // Contiguous, near-equal AS blocks: router i lands in AS i*as_count/R.
  std::vector<std::vector<int>> members(static_cast<std::size_t>(as_count));
  for (int i = 0; i < routers; ++i) {
    const int as = static_cast<int>(
        (static_cast<long>(i) * as_count) / routers);
    members[static_cast<std::size_t>(as)].push_back(i);
    builder.router(router_name(i));
    builder.enable_ospf(router_name(i));
    builder.enable_bgp(router_name(i), 100 + as);
  }

  for (const auto& as_members : members) {
    wire_waxman(builder, rng, as_members, 0.3, 0.25,
                options.extra_link_factor, options.random_cost_probability);
  }

  // Chain the ASes so the AS graph is connected, then a few extra sessions
  // for alternate inter-AS paths.
  const auto random_member = [&](int as) {
    const auto& pool = members[static_cast<std::size_t>(as)];
    return pool[static_cast<std::size_t>(rng.below(pool.size()))];
  };
  for (int as = 1; as < as_count; ++as) {
    const int prev = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(as)));
    builder.ebgp_link(router_name(random_member(as)),
                      router_name(random_member(prev)));
  }
  const int extra_sessions = options.extra_sessions >= 0
                                 ? options.extra_sessions
                                 : as_count / 2;
  for (int e = 0; e < extra_sessions; ++e) {
    const int a = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(as_count)));
    const int b = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(as_count)));
    if (a == b) continue;
    builder.ebgp_link(router_name(random_member(a)),
                      router_name(random_member(b)));
  }

  attach_hosts(builder, rng, routers,
               options.hosts >= 0 ? options.hosts
                                  : default_scale_hosts(routers));
  return builder.take();
}

ConfigSet make_preferential_attachment_network(
    const PreferentialAttachmentOptions& options, std::uint64_t seed) {
  Rng rng(seed);
  NetworkBuilder builder;
  const int routers = std::max(3, options.routers);
  const int m = std::clamp(options.links_per_router, 1, routers - 1);
  for (int i = 0; i < routers; ++i) {
    builder.router(router_name(i));
    builder.enable_ospf(router_name(i));
  }

  const auto add_link = [&](int a, int b) {
    builder.link(router_name(a), router_name(b),
                 maybe_cost(rng, options.random_cost_probability),
                 maybe_cost(rng, options.random_cost_probability));
  };

  // Degree-proportional sampling via the repeated-endpoint list: every
  // link appends both ends, so a uniform draw from `endpoints` IS a draw
  // proportional to degree — O(1) per draw, no weight tree needed.
  std::vector<int> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(m) *
                    static_cast<std::size_t>(routers));

  // Seed clique over the first m+1 routers: gives every early router
  // nonzero degree so attachment probabilities are well-defined from the
  // first growth step.
  const int core = m + 1;
  for (int a = 0; a < core; ++a) {
    for (int b = a + 1; b < core; ++b) {
      add_link(a, b);
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }

  std::vector<int> chosen;
  for (int i = core; i < routers; ++i) {
    chosen.clear();
    // Up to m DISTINCT degree-proportional targets; the attempt bound only
    // matters in degenerate tiny graphs (duplicates get likelier as m
    // approaches the node count, never at benchmark scale).
    for (int attempt = 0;
         static_cast<int>(chosen.size()) < m && attempt < 20 * m; ++attempt) {
      const int target = endpoints[static_cast<std::size_t>(
          rng.below(endpoints.size()))];
      if (std::find(chosen.begin(), chosen.end(), target) != chosen.end()) {
        continue;
      }
      chosen.push_back(target);
    }
    for (const int target : chosen) {
      add_link(i, target);
      endpoints.push_back(i);
      endpoints.push_back(target);
    }
  }

  attach_hosts(builder, rng, routers,
               options.hosts >= 0 ? options.hosts
                                  : default_scale_hosts(routers));
  return builder.take();
}

const char* scale_family_name(ScaleFamily family) {
  switch (family) {
    case ScaleFamily::kWaxman:
      return "waxman-ospf";
    case ScaleFamily::kWaxmanRip:
      return "waxman-rip";
    case ScaleFamily::kMultiAs:
      return "multi-as";
    case ScaleFamily::kPreferentialAttachment:
      return "pref-attach";
  }
  return "unknown";
}

ConfigSet make_scale_network(ScaleFamily family, int routers,
                             std::uint64_t seed) {
  switch (family) {
    case ScaleFamily::kWaxmanRip: {
      WaxmanOptions options;
      options.routers = routers;
      options.rip = true;
      return make_waxman_network(options, seed);
    }
    case ScaleFamily::kMultiAs: {
      MultiAsOptions options;
      options.routers = routers;
      return make_multi_as_network(options, seed);
    }
    case ScaleFamily::kPreferentialAttachment: {
      PreferentialAttachmentOptions options;
      options.routers = routers;
      return make_preferential_attachment_network(options, seed);
    }
    case ScaleFamily::kWaxman:
    default: {
      WaxmanOptions options;
      options.routers = routers;
      return make_waxman_network(options, seed);
    }
  }
}

}  // namespace confmask
