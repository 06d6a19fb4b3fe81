#include "src/netgen/networks.hpp"

#include <stdexcept>

#include "src/netgen/boilerplate.hpp"
#include "src/netgen/builder.hpp"
#include "src/util/rng.hpp"

namespace confmask {

namespace {

/// Declares a set of OSPF+BGP routers in one AS, fully meshed on demand by
/// the caller through builder.link().
void declare_as(NetworkBuilder& builder, const std::vector<std::string>& names,
                int local_as) {
  for (const auto& name : names) {
    builder.router(name);
    builder.enable_ospf(name);
    builder.enable_bgp(name, local_as);
  }
}

}  // namespace

ConfigSet make_enterprise() {
  NetworkBuilder builder;
  declare_as(builder, {"c1", "c2", "c3", "c4"}, 65001);
  declare_as(builder, {"b1", "b2", "b3"}, 65002);
  declare_as(builder, {"d1", "d2", "d3"}, 65003);

  // Intra-AS links (OSPF, default cost).
  builder.link("c1", "c2");
  builder.link("c2", "c3");
  builder.link("c3", "c4");
  builder.link("c4", "c1");
  builder.link("c1", "c3");
  builder.link("b1", "b2");
  builder.link("b2", "b3");
  builder.link("b3", "b1");
  builder.link("d1", "d2");
  builder.link("d2", "d3");
  builder.link("d3", "d1");

  // Inter-AS eBGP sessions.
  builder.ebgp_link("c1", "b1");
  builder.ebgp_link("c2", "b2");
  builder.ebgp_link("c3", "d1");
  builder.ebgp_link("c4", "d2");
  builder.ebgp_link("b3", "d3");
  builder.ebgp_link("c1", "d3");
  builder.ebgp_link("c2", "b3");

  builder.host("hc1", "c1");
  builder.host("hc3", "c3");
  builder.host("hb1", "b1");
  builder.host("hb2", "b2");
  builder.host("hb3", "b3");
  builder.host("hd1", "d1");
  builder.host("hd2", "d2");
  builder.host("hd3", "d3");
  auto configs = builder.take();
  add_boilerplate(configs);
  return configs;
}

ConfigSet make_university() {
  NetworkBuilder builder;
  declare_as(builder, {"c1", "c2", "c3", "c4", "c5"}, 65101);
  declare_as(builder, {"a1", "a2", "a3", "a4"}, 65102);
  declare_as(builder, {"b1", "b2", "b3", "b4"}, 65103);

  builder.link("c1", "c2");
  builder.link("c2", "c3");
  builder.link("c3", "c4");
  builder.link("c4", "c5");
  builder.link("c5", "c1");
  builder.link("a1", "a2");
  builder.link("a2", "a3");
  builder.link("a3", "a4");
  builder.link("a4", "a1");
  builder.link("b1", "b2");
  builder.link("b2", "b3");
  builder.link("b3", "b4");

  builder.ebgp_link("c1", "a1");
  builder.ebgp_link("c2", "a2");
  builder.ebgp_link("c3", "b1");
  builder.ebgp_link("c4", "b2");
  builder.ebgp_link("a4", "b4");

  builder.host("hc5", "c5");
  builder.host("hc1", "c1");
  builder.host("ha1", "a1");
  builder.host("ha2", "a2");
  builder.host("ha3", "a3");
  builder.host("hb2", "b2");
  builder.host("hb3", "b3");
  builder.host("hb4", "b4");
  auto configs = builder.take();
  add_boilerplate(configs);
  return configs;
}

ConfigSet make_backbone() {
  NetworkBuilder builder;
  declare_as(builder, {"x1", "x2", "x3", "x4"}, 65201);
  declare_as(builder, {"y1", "y2", "y3", "y4"}, 65202);
  declare_as(builder, {"z1", "z2", "z3"}, 65203);

  builder.link("x1", "x2");
  builder.link("x2", "x3");
  builder.link("x3", "x4");
  builder.link("x4", "x1");
  builder.link("y1", "y2");
  builder.link("y2", "y3");
  builder.link("y3", "y4");
  builder.link("y4", "y1");
  builder.link("z1", "z2");
  builder.link("z2", "z3");

  builder.ebgp_link("x1", "y1");
  builder.ebgp_link("y4", "z1");
  builder.ebgp_link("z3", "x4");

  builder.host("hx2", "x2");
  builder.host("hx3", "x3");
  builder.host("hx4", "x4");
  builder.host("hy1", "y1");
  builder.host("hy2", "y2");
  builder.host("hy3", "y3");
  builder.host("hz1", "z1");
  builder.host("hz2", "z2");
  builder.host("hz3", "z3");
  auto configs = builder.take();
  add_boilerplate(configs);
  return configs;
}

namespace {

/// Shared ISP-style generator; `use_rip` selects the IGP.
ConfigSet make_isp(const std::string& name_prefix, int routers, int hosts,
                   int router_links, std::uint64_t seed, bool use_rip) {
  if (router_links < routers - 1) {
    throw std::invalid_argument("router_links too small for connectivity");
  }
  Rng rng(seed);
  NetworkBuilder builder;
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(routers));
  for (int i = 0; i < routers; ++i) {
    names.push_back(name_prefix + std::to_string(i));
    builder.router(names.back());
    if (use_rip) {
      builder.enable_rip(names.back());
    } else {
      builder.enable_ospf(names.back());
    }
  }

  // Preferential-attachment spanning tree, then extra edges picked with
  // degree bias — the heavy-tailed degree shape of ISP topologies.
  std::vector<int> degree(static_cast<std::size_t>(routers), 0);
  std::vector<std::pair<int, int>> edges;
  const auto has_edge = [&](int u, int v) {
    for (const auto& [a, b] : edges) {
      if ((a == u && b == v) || (a == v && b == u)) return true;
    }
    return false;
  };
  const auto pick_weighted = [&](int upper_bound, int exclude) {
    long total = 0;
    for (int i = 0; i < upper_bound; ++i) {
      if (i != exclude) total += degree[static_cast<std::size_t>(i)] + 1;
    }
    long roll = static_cast<long>(rng.below(static_cast<std::uint64_t>(total)));
    for (int i = 0; i < upper_bound; ++i) {
      if (i == exclude) continue;
      roll -= degree[static_cast<std::size_t>(i)] + 1;
      if (roll < 0) return i;
    }
    return upper_bound - 1 == exclude ? upper_bound - 2 : upper_bound - 1;
  };

  for (int i = 1; i < routers; ++i) {
    const int j = pick_weighted(i, -1);
    edges.emplace_back(i, j);
    ++degree[static_cast<std::size_t>(i)];
    ++degree[static_cast<std::size_t>(j)];
  }
  int remaining = router_links - (routers - 1);
  int attempts = 0;
  while (remaining > 0) {
    if (++attempts > router_links * 200) {
      throw std::runtime_error("ISP generator failed to place extra links");
    }
    const int u = pick_weighted(routers, -1);
    const int v = pick_weighted(routers, u);
    if (u == v || has_edge(u, v)) continue;
    edges.emplace_back(u, v);
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
    --remaining;
  }
  for (const auto& [u, v] : edges) {
    builder.link(names[static_cast<std::size_t>(u)],
                 names[static_cast<std::size_t>(v)]);
  }

  // Hosts round-robin over a seeded shuffle of routers.
  std::vector<int> placement(static_cast<std::size_t>(routers));
  for (int i = 0; i < routers; ++i) placement[static_cast<std::size_t>(i)] = i;
  rng.shuffle(placement);
  for (int h = 0; h < hosts; ++h) {
    const int r = placement[static_cast<std::size_t>(h % routers)];
    builder.host(name_prefix + "h" + std::to_string(h),
                 names[static_cast<std::size_t>(r)]);
  }
  auto configs = builder.take();
  add_boilerplate(configs);
  return configs;
}

}  // namespace

ConfigSet make_isp_ospf(const std::string& name_prefix, int routers,
                        int hosts, int router_links, std::uint64_t seed) {
  return make_isp(name_prefix, routers, hosts, router_links, seed,
                  /*use_rip=*/false);
}

ConfigSet make_isp_rip(const std::string& name_prefix, int routers,
                       int hosts, int router_links, std::uint64_t seed) {
  return make_isp(name_prefix, routers, hosts, router_links, seed,
                  /*use_rip=*/true);
}

ConfigSet make_bics() { return make_isp_ospf("bics", 49, 98, 64, 0xB1C5); }

ConfigSet make_columbus() {
  return make_isp_ospf("clb", 86, 68, 101, 0xC01B);
}

ConfigSet make_uscarrier() {
  return make_isp_ospf("usc", 161, 58, 320, 0x05CA);
}

ConfigSet make_fattree(int pods, int aggs_per_pod, int cores,
                       int core_links_per_agg, int hosts_per_edge) {
  NetworkBuilder builder;
  const auto core_name = [](int c) {
    std::string name = "c";
    name += std::to_string(c);
    return name;
  };
  const auto pod_name = [](const char* kind, int p, int a) {
    std::string name = kind;
    name += std::to_string(p);
    name += '-';
    name += std::to_string(a);
    return name;
  };
  const auto agg_name = [&](int p, int a) { return pod_name("agg", p, a); };
  const auto edge_name = [&](int p, int a) { return pod_name("e", p, a); };

  for (int c = 0; c < cores; ++c) {
    builder.router(core_name(c));
    builder.enable_ospf(core_name(c));
  }
  for (int p = 0; p < pods; ++p) {
    for (int a = 0; a < aggs_per_pod; ++a) {
      builder.router(agg_name(p, a));
      builder.enable_ospf(agg_name(p, a));
      builder.router(edge_name(p, a));
      builder.enable_ospf(edge_name(p, a));
    }
  }
  for (int p = 0; p < pods; ++p) {
    for (int a = 0; a < aggs_per_pod; ++a) {
      for (int i = 0; i < core_links_per_agg; ++i) {
        const int c = (a * core_links_per_agg + i) % cores;
        builder.link(core_name(c), agg_name(p, a));
      }
      for (int e = 0; e < aggs_per_pod; ++e) {
        builder.link(agg_name(p, a), edge_name(p, e));
      }
    }
  }
  for (int p = 0; p < pods; ++p) {
    for (int a = 0; a < aggs_per_pod; ++a) {
      for (int j = 0; j < hosts_per_edge; ++j) {
        std::string host = pod_name("h", p, a);
        host += '-';
        host += std::to_string(j);
        builder.host(host, edge_name(p, a));
      }
    }
  }
  auto configs = builder.take();
  add_boilerplate(configs);
  return configs;
}

ConfigSet make_fattree04() { return make_fattree(4, 2, 4, 2, 2); }
ConfigSet make_fattree08() { return make_fattree(8, 4, 8, 4, 2); }

ConfigSet make_figure2() {
  NetworkBuilder builder;
  for (const char* name : {"r1", "r2", "r3", "r4"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("r1", "r2");
  builder.link("r1", "r3", 1, 1);
  builder.link("r3", "r2", 1, 1);
  builder.link("r2", "r4");
  builder.host("h1", "r1");
  builder.host("h2", "r2");
  builder.host("h4", "r4");
  return builder.take();
}

std::vector<EvalNetwork> evaluation_networks() {
  std::vector<EvalNetwork> networks;
  networks.push_back({"A", "Enterprise", "BGP+OSPF", make_enterprise()});
  networks.push_back({"B", "University", "BGP+OSPF", make_university()});
  networks.push_back({"C", "Backbone", "BGP+OSPF", make_backbone()});
  networks.push_back({"D", "Bics", "OSPF", make_bics()});
  networks.push_back({"E", "Columbus", "OSPF", make_columbus()});
  networks.push_back({"F", "USCarrier", "OSPF", make_uscarrier()});
  networks.push_back({"G", "FatTree04", "OSPF", make_fattree04()});
  networks.push_back({"H", "FatTree08", "OSPF", make_fattree08()});
  return networks;
}

}  // namespace confmask
