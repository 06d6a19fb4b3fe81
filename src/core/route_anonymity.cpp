#include "src/core/route_anonymity.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "src/core/filters.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {

std::vector<std::string> add_fake_hosts(ConfigSet& configs,
                                        const OriginalIndex& index, int k_h,
                                        PrefixAllocator& allocator) {
  std::vector<std::string> fake_hosts;
  // Snapshot the real host list first — we append to configs.hosts below.
  std::vector<HostConfig> real_hosts;
  for (const auto& host : configs.hosts) {
    if (index.real_hosts().count(host.hostname) != 0) {
      real_hosts.push_back(host);
    }
  }

  // The ingress router is the one owning the host's gateway address (the
  // last one in config order, should several claim it), found in one pass
  // over the interfaces against the sorted gateway addresses. Fake LANs
  // are fresh, so the interfaces added below never own a real gateway.
  std::vector<std::pair<std::uint32_t, RouterConfig*>> owner;
  owner.reserve(real_hosts.size());
  for (const auto& real : real_hosts) {
    owner.emplace_back(real.gateway.bits(), nullptr);
  }
  std::sort(owner.begin(), owner.end());
  const auto owner_of = [&owner](std::uint32_t address) {
    return std::lower_bound(
        owner.begin(), owner.end(), address,
        [](const auto& entry, std::uint32_t bits) { return entry.first < bits; });
  };
  for (auto& router : configs.routers) {
    for (const auto& iface : router.interfaces) {
      if (!iface.address) continue;
      for (auto it = owner_of(iface.address->bits());
           it != owner.end() && it->first == iface.address->bits(); ++it) {
        it->second = &router;
      }
    }
  }

  for (const auto& real : real_hosts) {
    RouterConfig* gateway = owner_of(real.gateway.bits())->second;
    if (gateway == nullptr) continue;

    for (int copy = 1; copy < k_h; ++copy) {
      const Ipv4Prefix lan = allocator.allocate_host_lan();
      // Fresh name: "<host>_<n>" with n bumped past any existing host
      // (e.g. when anonymizing an already-anonymized network whose
      // round-one copies took the low suffixes).
      std::string name;
      for (int suffix = copy;; ++suffix) {
        name = real.hostname + "_" + std::to_string(suffix);
        if (configs.find_host(name) == nullptr) break;
      }

      gateway->add_lookalike_interface(lan.host(1), 24, "to-" + name);

      if (gateway->ospf) {
        gateway->ospf->networks.push_back(OspfNetwork{lan, 0});
      } else if (gateway->rip) {
        gateway->rip->cover(lan.network());
      }
      if (gateway->bgp) gateway->bgp->networks.push_back(lan);

      // "Same configuration as the original host except for hostname and
      // IP address" (§5.3).
      HostConfig fake = real;
      fake.hostname = name;
      fake.address = lan.host(10);
      fake.prefix_length = 24;
      fake.gateway = lan.host(1);
      configs.hosts.push_back(std::move(fake));
      fake_hosts.push_back(name);
    }
  }
  return fake_hosts;
}

namespace {

/// The filters one router's noise pass left toward one fake host.
struct NoiseFilters {
  int router = -1;
  int fake_host = -1;
  std::vector<int> links;
};

}  // namespace

RouteAnonymityOutcome anonymize_routes(
    ConfigSet& configs, const std::vector<std::string>& fake_hosts,
    double noise_p, Rng& rng, std::shared_ptr<Simulation> entry,
    std::shared_ptr<Simulation>* final_simulation, AnonymityLog* log) {
  RouteAnonymityOutcome outcome;
  if (final_simulation != nullptr) final_simulation->reset();
  if (log != nullptr) *log = {};
  if (fake_hosts.empty() || noise_p <= 0.0) {
    // Nothing to do: the entry already simulates the final configs.
    if (final_simulation != nullptr) *final_simulation = std::move(entry);
    return outcome;
  }

  const std::set<std::string> fake_set(fake_hosts.begin(), fake_hosts.end());

  // The paper's Algorithm 2 loops over routers, re-checking reachability
  // after each router's random filters. Because a filter only affects the
  // filtering router's own RIB under link-state semantics (and the
  // rollback loop below runs to a fixpoint for the distance-vector/BGP
  // cases where effects propagate), we batch all routers into one noise
  // pass followed by rollback rounds — same filters kept, a fraction of
  // the simulation jobs (§5.4's dominant cost).
  std::shared_ptr<Simulation> current = std::move(entry);
  if (current == nullptr) current = std::make_shared<Simulation>(configs);
  // Shared ownership: the rollback rounds replace `current`, so this
  // handle keeps the frozen topology alive across the swaps.
  const std::shared_ptr<const Topology> topo_ref = current->topology_ptr();
  const Topology& topo = *topo_ref;

  std::vector<int> fake_nodes;
  for (int host : topo.host_ids()) {
    if (fake_set.count(topo.node(host).name) != 0) fake_nodes.push_back(host);
  }
  // The node set is frozen, so every filter edit of the stage goes through
  // one editor.
  FilterEditor editor(configs, topo);

  // DstH_old: which routers reach each fake host before any noise, by
  // host node id. One reverse sweep per fake host (instead of R ×
  // |fake_hosts| independent `reaches` walks re-deriving the same
  // prefixes), fanned out over the pool; each sweep writes only its own
  // slot.
  std::vector<std::vector<char>> reachable_before(
      static_cast<std::size_t>(topo.node_count()));
  ThreadPool::shared().parallel_for(fake_nodes.size(), [&](std::size_t i) {
    reachable_before[static_cast<std::size_t>(fake_nodes[i])] =
        current->routers_reaching(fake_nodes[i]);
  });

  // Noise pass: deny fake-host FIB entries with probability p (never the
  // connected delivery at the gateway). Serial — the RNG draw order is
  // part of the seeded contract. Records land in (router, fake host)
  // order, the order the rollback rounds visit them.
  std::vector<NoiseFilters> added;
  SimulationDelta delta;  // filter edits since `current` was built
  auto noise_span = PipelineTrace::begin("noise_pass");
  std::uint64_t fib_entries_scanned = 0;
  for (int r = 0; r < topo.router_count(); ++r) {
    for (int fh : fake_nodes) {
      const Ipv4Prefix& prefix = current->host_prefix(fh);
      for (const NextHop& hop : current->fib(r, fh)) {
        ++fib_entries_scanned;
        if (hop.neighbor == fh) continue;
        if (!rng.chance(noise_p)) continue;
        if (editor.add(r, hop.link, prefix)) {
          if (added.empty() || added.back().router != r ||
              added.back().fake_host != fh) {
            added.push_back(NoiseFilters{r, fh, {}});
          }
          added.back().links.push_back(hop.link);
          delta.record(r, prefix);
          if (log != nullptr) log->edits.push_back({true, r, hop.link, fh});
        }
      }
    }
  }
  if (noise_span) {
    noise_span.add("fib_entries_scanned", fib_entries_scanned);
    noise_span.add("filters_added", delta.changes.size());
    PipelineTrace::record("anonymity_dirty_set", delta.changes.size());
  }
  noise_span.end();

  // Rollback rounds: remove any filter set that took a previously
  // reachable fake host out of reach (DstH_old \ DstH_new), re-simulating
  // until nothing more needs rolling back. The topology is frozen (fake
  // hosts already exist), so re-simulation goes through the incremental
  // dirty-set path: only destinations the round's filter edits can affect
  // are recomputed. The loop runs to its fixpoint: every round either
  // rolls back at least one noise record or ends the loop, so it ends
  // after at most one round per record.
  while (!added.empty()) {
    // Each rollback round re-simulates — poll so a deadline/cancel stops
    // within one round instead of riding out the rest.
    poll_cancellation();
    auto round_span = PipelineTrace::begin("rollback_round");
    current = std::make_shared<Simulation>(configs, *current, delta);
    if (round_span) {
      const IncrementalStats& inc = current->incremental_stats();
      round_span.add("destinations_reused",
                     static_cast<std::uint64_t>(inc.destinations_reused));
      round_span.add("destinations_recomputed",
                     static_cast<std::uint64_t>(inc.destinations_recomputed));
      round_span.add("destinations_patched",
                     static_cast<std::uint64_t>(inc.destinations_patched));
      round_span.add("dirty_prefixes", delta.changes.size());
      PipelineTrace::record("anonymity_dirty_set", delta.changes.size());
    }
    delta.clear();

    // Fake hosts still carrying filters, for this round's batched sweeps.
    std::vector<int> pending;
    for (const NoiseFilters& record : added) pending.push_back(record.fake_host);
    std::sort(pending.begin(), pending.end());
    pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
    std::vector<std::vector<char>> reach_now(
        static_cast<std::size_t>(topo.node_count()));  // by host node id
    ThreadPool::shared().parallel_for(pending.size(), [&](std::size_t i) {
      reach_now[static_cast<std::size_t>(pending[i])] =
          current->routers_reaching(pending[i]);
    });

    const int rolled_back_before = outcome.filters_rolled_back;
    const std::size_t records_before = added.size();
    std::erase_if(added, [&](const NoiseFilters& record) {
      const auto r = static_cast<std::size_t>(record.router);
      const auto h = static_cast<std::size_t>(record.fake_host);
      if (reachable_before[h][r] == 0 || reach_now[h][r] != 0) return false;
      const Ipv4Prefix& prefix = current->host_prefix(record.fake_host);
      for (int link_id : record.links) {
        if (editor.remove(record.router, link_id, prefix)) {
          ++outcome.filters_rolled_back;
          delta.record(record.router, prefix);
          if (log != nullptr) {
            log->edits.push_back({false, record.router, link_id,
                                  record.fake_host});
          }
        }
      }
      return true;
    });
    if (round_span) {
      round_span.add("pending_hosts", pending.size());
      round_span.add("filters_rolled_back",
                     static_cast<std::uint64_t>(outcome.filters_rolled_back -
                                                rolled_back_before));
    }
    if (added.size() == records_before) break;
  }
  for (const NoiseFilters& record : added) {
    outcome.filters_added += static_cast<int>(record.links.size());
  }
  if (log != nullptr) log->outcome = outcome;

  // Hand the last build to the caller so verification need not rebuild
  // from scratch. The last round may have rolled filters back after its
  // build (when it rolled back every remaining record), but every edit of the stage is an exact deny of a fake-host LAN, which
  // the allocator keeps disjoint from every real host prefix: the
  // real-destination columns, all that verification reads, are final.
  if (final_simulation != nullptr) *final_simulation = std::move(current);
  return outcome;
}

RouteAnonymityOutcome replay_route_anonymity(
    ConfigSet& configs, const AnonymityLog& log,
    std::shared_ptr<Simulation> entry,
    std::shared_ptr<Simulation>* final_simulation) {
  PipelineTrace::count("replayed_edits", log.edits.size());
  FilterEditor editor(configs, entry->topology());
  for (const AnonymityEdit& edit : log.edits) {
    const Ipv4Prefix& prefix = entry->host_prefix(edit.fake_host);
    const bool applied = edit.add
                             ? editor.add(edit.router, edit.link, prefix)
                             : editor.remove(edit.router, edit.link, prefix);
    if (!applied) {
      throw std::logic_error("Algorithm 2 replay: a " +
                             std::string(edit.add ? "filter add" : "rollback") +
                             " for " + prefix.str() + " took no effect");
    }
  }
  // Every edit is an exact deny of a fake-host LAN, disjoint from every real
  // host prefix, so the entry's real-destination columns are final.
  if (final_simulation != nullptr) *final_simulation = std::move(entry);
  return log.outcome;
}

}  // namespace confmask
