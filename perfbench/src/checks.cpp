#include "perfbench/src/checks.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "src/core/pipeline_runner.hpp"
#include "src/netgen/networks.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/topology.hpp"

namespace perfbench {

namespace {

using confmask::ConfigSet;

/// Smallest same-degree class of a graph given as neighbor sets.
int min_degree_class(const std::vector<std::set<int>>& neighbors) {
  std::map<std::size_t, int> class_size;
  for (const auto& adjacent : neighbors) ++class_size[adjacent.size()];
  int smallest = static_cast<int>(neighbors.size());
  for (const auto& [degree, size] : class_size) {
    smallest = std::min(smallest, size);
  }
  return smallest;
}

/// Two-level degree classes: every AS's router graph plus the AS
/// supergraph, or the flat router graph when there is one domain. Sets
/// achieved_k and required_k; true when every graph meets its own
/// requirement min(k_r, nodes).
bool degree_classes_ok(const ConfigSet& configs, int k_r, int& achieved_k,
                       int& required_k) {
  const confmask::Topology topo = confmask::Topology::build(configs);
  std::vector<int> as_of(static_cast<std::size_t>(topo.router_count()));
  std::map<int, std::vector<int>> members;
  for (int r = 0; r < topo.router_count(); ++r) {
    const auto& router = configs.routers[static_cast<std::size_t>(
        topo.node(r).config_index)];
    as_of[static_cast<std::size_t>(r)] = router.bgp ? router.bgp->local_as : -1;
    members[as_of[static_cast<std::size_t>(r)]].push_back(r);
  }

  std::map<int, int> local_id;   // router -> id inside its AS graph
  std::map<int, int> as_index;   // AS number -> id in the supergraph
  for (const auto& [as_number, routers] : members) {
    const int index = static_cast<int>(as_index.size());
    as_index[as_number] = index;
    for (std::size_t i = 0; i < routers.size(); ++i) {
      local_id[routers[i]] = static_cast<int>(i);
    }
  }
  std::map<int, std::vector<std::set<int>>> intra;
  for (const auto& [as_number, routers] : members) {
    intra[as_number].resize(routers.size());
  }
  std::vector<std::set<int>> inter(as_index.size());
  for (const auto& link : topo.links()) {
    const int a = link.a.node;
    const int b = link.b.node;
    if (!topo.is_router(a) || !topo.is_router(b) || a == b) continue;
    const int as_a = as_of[static_cast<std::size_t>(a)];
    const int as_b = as_of[static_cast<std::size_t>(b)];
    if (as_a == as_b) {
      auto& graph = intra[as_a];
      graph[static_cast<std::size_t>(local_id[a])].insert(local_id[b]);
      graph[static_cast<std::size_t>(local_id[b])].insert(local_id[a]);
    } else {
      inter[static_cast<std::size_t>(as_index[as_a])].insert(as_index[as_b]);
      inter[static_cast<std::size_t>(as_index[as_b])].insert(as_index[as_a]);
    }
  }

  std::vector<const std::vector<std::set<int>>*> graphs;
  for (const auto& [as_number, graph] : intra) graphs.push_back(&graph);
  if (members.size() > 1) graphs.push_back(&inter);

  bool ok = true;
  achieved_k = topo.router_count();
  required_k = k_r;
  for (const auto* graph : graphs) {
    const int nodes = static_cast<int>(graph->size());
    if (nodes == 0) continue;
    const int achieved = min_degree_class(*graph);
    const int required = std::min(k_r, nodes);
    achieved_k = std::min(achieved_k, achieved);
    required_k = std::min(required_k, required);
    ok = ok && achieved >= required;
  }
  return ok;
}

}  // namespace

CheckOutcome check_artifact(const ConfigSet& original,
                            const ConfigSet& anonymized, int k_r) {
  CheckOutcome out;
  const confmask::ReferenceSimulation original_sim(original);
  const confmask::DataPlane original_dp = original_sim.extract_data_plane();
  const bool original_truncated = original_sim.last_extraction_truncated();
  const confmask::ReferenceSimulation anonymized_sim(anonymized);
  const confmask::DataPlane anonymized_dp =
      anonymized_sim.extract_data_plane();
  out.truncated =
      original_truncated || anonymized_sim.last_extraction_truncated();

  std::set<std::string> real_hosts;
  for (const auto& host : original.hosts) real_hosts.insert(host.hostname);
  out.equivalent = anonymized_dp.equals_restricted(original_dp, real_hosts);
  out.private_ok =
      degree_classes_ok(anonymized, k_r, out.achieved_k, out.required_k);

  if (out.truncated) {
    out.detail = "path extraction truncated";
  } else if (!out.equivalent) {
    const auto diff =
        anonymized_dp.restricted_to(real_hosts).diff(original_dp, 1);
    out.detail = "data planes differ";
    if (!diff.empty()) {
      out.detail += " at " + diff.front().source + "->" +
                    diff.front().destination + " router '" +
                    diff.front().router + "'";
    }
  } else if (!out.private_ok) {
    out.detail = "degree class " + std::to_string(out.achieved_k) +
                 " below required " + std::to_string(out.required_k);
  }
  return out;
}

std::vector<bool> check_all(std::size_t count,
                            const std::function<bool(std::size_t)>& check) {
  std::vector<char> verdicts(count, 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) {
        try {
          verdicts[i] = check(i) ? 1 : 0;
        } catch (const std::exception&) {
          verdicts[i] = 0;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return {verdicts.begin(), verdicts.end()};
}

int relaxed_k_r(const std::string& diagnostics_json, int requested) {
  int k_r = requested;
  const std::string rung = "\"kind\": \"RelaxKr\"";
  for (std::size_t at = diagnostics_json.find(rung); at != std::string::npos;
       at = diagnostics_json.find(rung, at + 1)) {
    const std::size_t arrow = diagnostics_json.find("-> ", at);
    if (arrow == std::string::npos) break;
    k_r = std::atoi(diagnostics_json.c_str() + arrow + 3);
  }
  return k_r;
}

bool checks_self_test(std::string* detail) {
  // Bics (network D, 49 routers): large enough that route equivalence must
  // add filters, small enough to check in well under a second.
  const ConfigSet original = confmask::make_bics();
  confmask::ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 1;
  const auto guarded = confmask::run_pipeline_guarded(original, options);
  if (!guarded.ok()) {
    *detail = "self-test pipeline run failed closed";
    return false;
  }
  const ConfigSet& anonymized = guarded.result->anonymized;
  const int k_r = guarded.effective_options.k_r;
  const CheckOutcome good = check_artifact(original, anonymized, k_r);
  if (!good.ok()) {
    *detail = "verified artifact rejected: " + good.detail;
    return false;
  }

  // Broken copy 1: every distribute-list the pipeline added is deleted, so
  // the fake links it priced attractive carry real traffic again.
  ConfigSet no_filters = anonymized;
  std::size_t deleted = 0;
  for (auto& router : no_filters.routers) {
    const auto* before = original.find_router(router.hostname);
    const auto strip = [&](std::vector<confmask::DistributeList>& lists,
                           const std::vector<confmask::DistributeList>* keep) {
      const std::size_t size = lists.size();
      std::erase_if(lists, [&](const confmask::DistributeList& list) {
        return keep == nullptr ||
               std::find(keep->begin(), keep->end(), list) == keep->end();
      });
      deleted += size - lists.size();
    };
    if (router.ospf) {
      strip(router.ospf->distribute_lists,
            before != nullptr && before->ospf ? &before->ospf->distribute_lists
                                              : nullptr);
    }
    if (router.rip) {
      strip(router.rip->distribute_lists,
            before != nullptr && before->rip ? &before->rip->distribute_lists
                                             : nullptr);
    }
  }
  const CheckOutcome broken = check_artifact(original, no_filters, k_r);
  if (deleted == 0 || broken.ok()) {
    *detail = "artifact with " + std::to_string(deleted) +
              " added filters deleted was counted as verified";
    return false;
  }

  // Broken copy 2: the original configs returned as if anonymized.
  const CheckOutcome exposed = check_artifact(original, original, k_r);
  if (exposed.ok()) {
    *detail = "unanonymized configs were counted as verified";
    return false;
  }
  *detail = "verified artifact passed; deleting its " +
            std::to_string(deleted) + " added filters failed (" +
            broken.detail + "); unanonymized configs failed (" +
            exposed.detail + ")";
  return true;
}

}  // namespace perfbench
