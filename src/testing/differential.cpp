#include "src/testing/differential.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "src/config/emit.hpp"
#include "src/core/filters.hpp"
#include "src/netgen/random_network.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {

namespace {

/// A random destination-ish prefix for filters / ACL operands / statics:
/// usually a real host LAN, sometimes a coarser aggregate or a single
/// host — the prefix-length edge cases longest-prefix match and prefix-list
/// matching must get right.
Ipv4Prefix random_prefix(Rng& rng, const ConfigSet& configs) {
  const HostConfig& host = rng.pick(configs.hosts);
  switch (rng.below(5)) {
    case 0:
      return Ipv4Prefix{host.address, 32};
    case 1:
      return Ipv4Prefix{host.address, 16};
    case 2:
      return Ipv4Prefix{host.address, 8};
    default:
      return host.prefix();
  }
}

void add_random_acls(ConfigSet& configs, Rng& rng, int max_bindings) {
  const auto operand = [&] {
    if (rng.chance(0.3)) return Ipv4Prefix{Ipv4Address{0u}, 0};  // any
    return random_prefix(rng, configs);
  };
  const int bindings = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(max_bindings) + 1));
  for (int i = 0; i < bindings; ++i) {
    RouterConfig& router =
        configs.routers[static_cast<std::size_t>(rng.below(
            configs.routers.size()))];
    if (router.interfaces.empty()) continue;
    InterfaceConfig& iface =
        router.interfaces[static_cast<std::size_t>(rng.below(
            router.interfaces.size()))];
    const int number = 100 + static_cast<int>(rng.below(5));
    iface.access_group_in = number;
    if (rng.chance(0.15)) continue;  // dangling binding: must mean "no filter"
    AccessList acl;
    acl.number = number;
    const int entry_count = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < entry_count; ++e) {
      acl.entries.push_back(
          AclEntry{rng.chance(0.6), operand(), operand()});
    }
    if (rng.chance(0.7)) {
      // Terminal permit-any-any; when absent, the implicit deny-all edge
      // case is exercised instead.
      acl.entries.push_back(AclEntry{true, Ipv4Prefix{Ipv4Address{0u}, 0},
                                     Ipv4Prefix{Ipv4Address{0u}, 0}});
    }
    router.access_lists.push_back(std::move(acl));
  }
}

void add_random_statics(ConfigSet& configs, const Topology& topo, Rng& rng,
                        int max_statics) {
  const int statics = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(max_statics) + 1));
  for (int i = 0; i < statics; ++i) {
    const int node = static_cast<int>(rng.below(configs.routers.size()));
    const auto& incident = topo.links_of(node);
    if (incident.empty()) continue;
    const Link& link = topo.link(
        incident[static_cast<std::size_t>(rng.below(incident.size()))]);
    Ipv4Address next_hop = link.other_end(node).address;
    if (rng.chance(0.2)) {
      next_hop = Ipv4Address{203, 0, 113, 1};  // unresolvable on purpose
    }
    configs.routers[static_cast<std::size_t>(node)].static_routes.push_back(
        StaticRoute{random_prefix(rng, configs), next_hop});
  }
}

void add_random_filters(ConfigSet& configs, const Topology& topo, Rng& rng,
                        int max_filters) {
  const int filters = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(max_filters) + 1));
  FilterEditor editor(configs, topo);
  for (int i = 0; i < filters; ++i) {
    const int node = static_cast<int>(rng.below(configs.routers.size()));
    const auto& incident = topo.links_of(node);
    if (incident.empty()) continue;
    const int link =
        incident[static_cast<std::size_t>(rng.below(incident.size()))];
    editor.add(node, link, random_prefix(rng, configs));
  }
}

/// First FIB mismatch between the engines as human-readable text, or empty
/// when every (router, destination) column agrees. Stricter than comparing
/// extracted data planes: it also covers black-holed and loop-forming
/// entries that never become a complete path.
std::string first_fib_mismatch(const Simulation& fast,
                               const ReferenceSimulation& ref) {
  const Topology& topo = fast.topology();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const int host : topo.host_ids()) {
      const auto& lhs = fast.fib(router, host);
      const auto& rhs = ref.fib(router, host);
      bool same = lhs.size() == rhs.size();
      for (std::size_t i = 0; same && i < lhs.size(); ++i) {
        same = lhs[i].link == rhs[i].link &&
               lhs[i].neighbor == rhs[i].neighbor;
      }
      if (same) continue;
      std::ostringstream message;
      message << topo.node(router).name << " -> " << topo.node(host).name
              << ": fast {";
      for (const auto& hop : lhs) {
        message << " (" << hop.link << "," << hop.neighbor << ")";
      }
      message << " } reference {";
      for (const auto& hop : rhs) {
        message << " (" << hop.link << "," << hop.neighbor << ")";
      }
      message << " }";
      return message.str();
    }
  }
  return {};
}

std::string first_fib_mismatch(const Simulation& lhs, const Simulation& rhs) {
  const Topology& topo = lhs.topology();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const int host : topo.host_ids()) {
      if (lhs.fib(router, host) == rhs.fib(router, host)) continue;
      return topo.node(router).name + " -> " + topo.node(host).name +
             ": incremental and fresh FIBs differ";
    }
  }
  return {};
}

std::string describe_diff(const std::vector<DataPlaneDiffEntry>& diff) {
  std::ostringstream message;
  for (const auto& entry : diff) {
    message << entry.source << "->" << entry.destination;
    if (!entry.router.empty()) message << " @" << entry.router;
    message << " lhs{";
    for (const auto& hop : entry.lhs_next_hops) message << " " << hop;
    message << " } rhs{";
    for (const auto& hop : entry.rhs_next_hops) message << " " << hop;
    message << " }; ";
  }
  return message.str();
}

}  // namespace

ConfigSet minimize_failing_config(ConfigSet configs,
                                  const std::function<bool(const ConfigSet&)>&
                                      still_fails) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    const auto attempt = [&](const std::function<void(ConfigSet&)>& remove) {
      ConfigSet candidate = configs;
      remove(candidate);
      if (still_fails(candidate)) {
        configs = std::move(candidate);
        shrunk = true;
        return true;
      }
      return false;
    };
    for (std::size_t i = 0; i < configs.hosts.size();) {
      if (!attempt([&](ConfigSet& c) {
            c.hosts.erase(c.hosts.begin() + static_cast<std::ptrdiff_t>(i));
          })) {
        ++i;
      }
    }
    for (std::size_t i = 0; i < configs.routers.size();) {
      if (!attempt([&](ConfigSet& c) {
            c.routers.erase(c.routers.begin() +
                            static_cast<std::ptrdiff_t>(i));
          })) {
        ++i;
      }
    }
    // A successful attempt() replaces `configs` wholesale, so nothing may
    // hold a reference into it across attempts — always re-index through
    // configs.routers[r]. None of the attempts below add or remove
    // routers, so the index r itself stays valid.
    for (std::size_t r = 0; r < configs.routers.size(); ++r) {
      for (std::size_t i = 0; i < configs.routers[r].static_routes.size();) {
        if (!attempt([&](ConfigSet& c) {
              auto& routes = c.routers[r].static_routes;
              routes.erase(routes.begin() + static_cast<std::ptrdiff_t>(i));
            })) {
          ++i;
        }
      }
      for (std::size_t i = 0; i < configs.routers[r].interfaces.size(); ++i) {
        if (configs.routers[r].interfaces[i].access_group_in) {
          attempt([&](ConfigSet& c) {
            c.routers[r].interfaces[i].access_group_in.reset();
          });
        }
      }
      for (std::size_t a = 0; a < configs.routers[r].access_lists.size();
           ++a) {
        for (std::size_t i = 0;
             i < configs.routers[r].access_lists[a].entries.size();) {
          if (!attempt([&](ConfigSet& c) {
                auto& entries = c.routers[r].access_lists[a].entries;
                entries.erase(entries.begin() +
                              static_cast<std::ptrdiff_t>(i));
              })) {
            ++i;
          }
        }
      }
      for (std::size_t p = 0; p < configs.routers[r].prefix_lists.size();
           ++p) {
        for (std::size_t i = 0;
             i < configs.routers[r].prefix_lists[p].entries.size();) {
          if (!attempt([&](ConfigSet& c) {
                auto& entries = c.routers[r].prefix_lists[p].entries;
                entries.erase(entries.begin() +
                              static_cast<std::ptrdiff_t>(i));
              })) {
            ++i;
          }
        }
      }
      for (std::size_t i = 0;
           configs.routers[r].ospf &&
           i < configs.routers[r].ospf->distribute_lists.size();) {
        if (!attempt([&](ConfigSet& c) {
              auto& lists = c.routers[r].ospf->distribute_lists;
              lists.erase(lists.begin() + static_cast<std::ptrdiff_t>(i));
            })) {
          ++i;
        }
      }
      for (std::size_t i = 0;
           configs.routers[r].rip &&
           i < configs.routers[r].rip->distribute_lists.size();) {
        if (!attempt([&](ConfigSet& c) {
              auto& lists = c.routers[r].rip->distribute_lists;
              lists.erase(lists.begin() + static_cast<std::ptrdiff_t>(i));
            })) {
          ++i;
        }
      }
    }
  }
  return configs;
}

namespace {

/// Dumps the (possibly minimized) configuration set plus a README naming
/// the seed and check, so a repro can be replayed and turned into a
/// regression test. Returns the artifact directory.
std::string write_repro(const std::string& repro_dir,
                        const DifferentialFinding& finding,
                        const ConfigSet& configs) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(repro_dir) / ("seed-" + std::to_string(finding.seed));
  fs::create_directories(dir);
  for (const auto& router : configs.routers) {
    std::ofstream(dir / (router.hostname + ".cfg")) << emit_router(router);
  }
  for (const auto& host : configs.hosts) {
    std::ofstream(dir / (host.hostname + ".cfg")) << emit_host(host);
  }
  std::ofstream readme(dir / "README.md");
  readme << "# Differential repro\n\n"
         << "- seed: " << finding.seed << "\n"
         << "- failing check: " << finding.check << "\n"
         << "- detail: " << finding.detail << "\n\n"
         << "Replay: rebuild the ConfigSet from these files (parse_router /"
            " parse_host),\nthen run Simulation and ReferenceSimulation over"
            " it and compare\nextract_data_plane() via DataPlane::diff (see"
            " DESIGN.md \xC2\xA7""10).\n";
  return dir.string();
}

/// True when the fast engine and the oracle disagree on `configs` (the
/// minimizer's predicate). Truncated enumerations never count as failures.
bool oracle_disagrees(const ConfigSet& configs) {
  try {
    const Simulation fast(configs);
    const ReferenceSimulation ref(configs);
    if (!first_fib_mismatch(fast, ref).empty()) return true;
    const DataPlane ref_dp = ref.extract_data_plane();
    if (ref.last_extraction_truncated()) return false;
    return !fast.extract_data_plane().diff(ref_dp, 1).empty();
  } catch (const std::exception&) {
    // A shrunken candidate that no longer builds (say, a host whose
    // gateway router was deleted) is not a usable repro.
    return false;
  }
}

}  // namespace

void decorate_random_network(ConfigSet& configs, std::uint64_t seed,
                             const DifferentialOptions& options) {
  // Distinct stream from the topology generator so topology and decoration
  // can be varied independently.
  Rng rng(seed ^ 0xDEC0DEC0DEC0ull);
  if (configs.hosts.empty() || configs.routers.empty()) return;
  // Decoration never adds interfaces or addresses, so the topology built
  // here stays valid for the decorated set.
  const Topology topo = Topology::build(configs);
  add_random_acls(configs, rng, options.max_acl_bindings);
  add_random_statics(configs, topo, rng, options.max_static_routes);
  add_random_filters(configs, topo, rng, options.max_route_filters);
}

void decorate_scale_network(ConfigSet& configs, std::uint64_t seed) {
  const auto routers = static_cast<int>(configs.routers.size());
  DifferentialOptions options;
  options.max_route_filters = std::max(4, routers / 20);
  options.max_static_routes = std::max(2, routers / 50);
  options.max_acl_bindings = std::max(2, routers / 50);
  decorate_random_network(configs, seed, options);
}

DifferentialResult run_differential_case(std::uint64_t seed,
                                         const DifferentialOptions& options) {
  ConfigSet configs = make_random_network(options.network, seed);
  decorate_random_network(configs, seed, options);
  return run_differential_checks(configs, seed, options);
}

DifferentialResult run_differential_checks(const ConfigSet& configs,
                                           std::uint64_t seed,
                                           const DifferentialOptions& options) {
  DifferentialResult result;
  result.seed = seed;

  const auto fail = [&](const std::string& check, std::string detail,
                        std::vector<DataPlaneDiffEntry> diff,
                        const ConfigSet& failing_configs) {
    result.ok = false;
    DifferentialFinding finding;
    finding.seed = seed;
    finding.check = check;
    finding.detail = std::move(detail);
    finding.diff = std::move(diff);
    if (!options.repro_dir.empty()) {
      // Only the stateless oracle checks can be re-validated on a shrunken
      // config; incremental / jobs failures are dumped as-is.
      const bool minimizable = check == "oracle" || check == "fib";
      const ConfigSet minimized =
          minimizable
              ? minimize_failing_config(failing_configs, oracle_disagrees)
              : failing_configs;
      finding.repro_path = write_repro(options.repro_dir, finding, minimized);
    }
    result.finding = std::move(finding);
  };

  // Check (a): fast engine ≡ reference oracle, FIBs first (stricter), then
  // the extracted data planes.
  const Simulation fast(configs);
  const ReferenceSimulation ref(configs);
  if (auto mismatch = first_fib_mismatch(fast, ref); !mismatch.empty()) {
    fail("fib", std::move(mismatch), {}, configs);
    return result;
  }
  const DataPlane ref_dp = ref.extract_data_plane();
  if (ref.last_extraction_truncated()) {
    result.truncated_skip = true;
  } else {
    auto diff = fast.extract_data_plane().diff(ref_dp, 8);
    if (!diff.empty()) {
      fail("oracle", describe_diff(diff), std::move(diff), configs);
      return result;
    }
  }

  // Check (b): incremental re-simulation ≡ full re-simulation after random
  // filter edits, and the edited network still matches the oracle.
  if (options.check_incremental && !configs.hosts.empty()) {
    Rng rng(seed ^ 0xED175EEDull);
    ConfigSet edited = configs;
    const Topology topo = Topology::build(edited);
    SimulationDelta delta;
    struct AppliedFilter {
      int node;
      int link;
      Ipv4Prefix prefix;
    };
    std::vector<AppliedFilter> applied;
    FilterEditor editor(edited, topo);
    for (int i = 0; i < options.incremental_edits; ++i) {
      if (!applied.empty() && rng.chance(0.4)) {
        const std::size_t victim =
            static_cast<std::size_t>(rng.below(applied.size()));
        const AppliedFilter edit = applied[victim];
        if (editor.remove(edit.node, edit.link, edit.prefix)) {
          delta.record(edit.node, edit.prefix);
          applied.erase(applied.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        }
        continue;
      }
      const int node = static_cast<int>(rng.below(edited.routers.size()));
      const auto& incident = topo.links_of(node);
      if (incident.empty()) continue;
      const int link_id =
          incident[static_cast<std::size_t>(rng.below(incident.size()))];
      const Ipv4Prefix prefix = random_prefix(rng, edited);
      if (editor.add(node, link_id, prefix)) {
        delta.record(node, prefix);
        applied.push_back(AppliedFilter{node, link_id, prefix});
      }
    }
    if (!delta.empty()) {
      const Simulation incremental(edited, fast, delta);
      const Simulation fresh(edited);
      if (auto mismatch = first_fib_mismatch(incremental, fresh);
          !mismatch.empty()) {
        fail("incremental", std::move(mismatch), {}, edited);
        return result;
      }
      const ReferenceSimulation edited_ref(edited);
      if (auto mismatch = first_fib_mismatch(fresh, edited_ref);
          !mismatch.empty()) {
        fail("fib_after_edits", std::move(mismatch), {}, edited);
        return result;
      }
      const DataPlane edited_ref_dp = edited_ref.extract_data_plane();
      if (!edited_ref.last_extraction_truncated()) {
        auto diff = fresh.extract_data_plane().diff(edited_ref_dp, 8);
        if (!diff.empty()) {
          fail("oracle_after_edits", describe_diff(diff), std::move(diff),
               edited);
          return result;
        }
      }
    }
  }

  // Check (c): worker-count invariance, --jobs 1 ≡ --jobs N.
  if (options.check_jobs) {
    const unsigned previous = ThreadPool::shared().workers();
    ThreadPool::configure(1);
    const DataPlane serial = Simulation(configs).extract_data_plane();
    ThreadPool::configure(options.jobs_high);
    const DataPlane parallel = Simulation(configs).extract_data_plane();
    ThreadPool::configure(previous);
    auto diff = serial.diff(parallel, 8);
    if (!diff.empty()) {
      fail("jobs", describe_diff(diff), std::move(diff), configs);
      return result;
    }
  }

  return result;
}

DifferentialCorpusStats run_differential_corpus(
    std::uint64_t start_seed, int cases, const DifferentialOptions& options,
    double budget_seconds) {
  DifferentialCorpusStats stats;
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < cases; ++i) {
    if (budget_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - started;
      if (elapsed.count() > budget_seconds) break;
    }
    const DifferentialResult result =
        run_differential_case(start_seed + static_cast<std::uint64_t>(i),
                              options);
    ++stats.cases;
    if (result.truncated_skip) ++stats.truncated_skips;
    if (!result.ok && result.finding) {
      ++stats.failures;
      stats.findings.push_back(*result.finding);
    }
  }
  return stats;
}

}  // namespace confmask
