#include "src/routing/simulation.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "src/util/cancellation.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {

namespace {

constexpr long kInf = std::numeric_limits<long>::max() / 4;

// Pure statistic (see the invariant on Simulation::total_runs): relaxed
// ordering everywhere — no acquire/release pairing, nothing reads other
// memory through this counter.
std::atomic<std::uint64_t> g_simulation_runs{0};

// Per-thread twin of g_simulation_runs (see runs_on_this_thread()).
thread_local std::uint64_t t_simulation_runs = 0;

using HeapItem = std::pair<long, std::int32_t>;

// Reusable per-thread scratch for per-destination convergence: the
// distance array, the Dijkstra heap, and the per-router FIB slot builders
// (entries accumulate across the gateway/IGP/BGP/static passes in pushed
// order, then get packed into the destination's immutable column arena).
// Pool workers process destinations with disjoint writes, so the scratch
// is thread-local and never shared; `touched` lists the routers whose
// slot needs clearing, so reset cost tracks actual FIB size, not R.
// Slots are cleaned at ENTRY of the next use (not at exit), which keeps
// the invariant even if an exception unwinds mid-destination.
struct DestScratch {
  std::vector<long> dist;
  std::vector<HeapItem> heap;
  std::vector<std::int32_t> queue;  // RIP BFS frontier
  std::vector<std::vector<NextHop>> slots;
  std::vector<std::int32_t> touched;  // may contain duplicates
};

DestScratch& dest_scratch(int routers) {
  thread_local DestScratch scratch;
  if (scratch.slots.size() < static_cast<std::size_t>(routers)) {
    scratch.slots.resize(static_cast<std::size_t>(routers));
  }
  for (const std::int32_t r : scratch.touched) {
    scratch.slots[static_cast<std::size_t>(r)].clear();
  }
  scratch.touched.clear();
  return scratch;
}

// Reusable per-thread buffers for walks and reverse-FIB sweeps.
struct WalkScratch {
  std::vector<char> visited;
  std::vector<int> current;
  std::vector<std::int32_t> gateway_group;  // flow_column, per router
  std::vector<char> gateway_capped;
  std::vector<std::int32_t> rev_offset;
  std::vector<std::int32_t> rev_cursor;
  std::vector<std::int32_t> rev_edges;
  std::vector<std::int32_t> queue;
};

WalkScratch& walk_scratch() {
  thread_local WalkScratch scratch;
  return scratch;
}

void heap_push(std::vector<HeapItem>& heap, long dist, std::int32_t node) {
  heap.emplace_back(dist, node);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

HeapItem heap_pop(std::vector<HeapItem>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const HeapItem top = heap.back();
  heap.pop_back();
  return top;
}

std::uint32_t mask_of(int length) {
  return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
}

/// Hash key of `bits` masked to `length` (length ≤ 32 < 2^6, so no key
/// equals KeySet::kEmpty). `slot` (< 2^26) prefixes it for the deny index.
std::uint64_t prefix_key(std::uint32_t bits, int length,
                         std::uint64_t slot = 0) {
  return slot << 38 | static_cast<std::uint64_t>(length) << 32 |
         (bits & mask_of(length));
}

// Interface slots the deny index can key (26 bits of the 64-bit key).
constexpr std::int32_t kMaxIndexedSlots = std::int32_t{1} << 26;

/// An entry matching every candidate. Stricter than the editing helpers'
/// check, which ignores `ge`: a `ge` above 0 leaves short prefixes
/// unmatched, and the deny index must not assume they are permitted.
bool is_permit_all(const PrefixListEntry& entry) {
  return entry.permit && entry.prefix.length() == 0 && entry.le == 32 &&
         entry.ge.value_or(0) == 0;
}

/// True for a list that denies exactly its deny prefixes: exact-prefix
/// denies (no ge/le, so each matches only its own prefix), then a
/// permit-all whose match ends every later scan. What
/// add_deny_keeping_permit_all writes.
bool is_deny_shaped(const PrefixList& list) {
  for (const PrefixListEntry& entry : list.entries) {
    if (!entry.permit && !entry.ge && !entry.le) continue;
    return is_permit_all(entry);
  }
  return false;  // no permit-all: the implicit deny-all applies
}

/// One OSPF half-edge: `from` forwards to `to` at `cost`.
using Arc = std::tuple<std::int32_t, std::int32_t, std::int32_t>;

/// The OSPF half-edges among the first `routers` nodes, sorted.
std::vector<Arc> ospf_arcs(const FlatTopology& flat, int routers) {
  std::vector<Arc> arcs;
  for (int u = 0; u < routers; ++u) {
    const std::int32_t last = flat.last_out(u);
    for (std::int32_t e = flat.first_out(u); e < last; ++e) {
      if ((flat.edge_flags(e) & FlatTopology::kOspf) == 0) continue;
      arcs.emplace_back(u, flat.edge_target(e), flat.edge_cost_out(e));
    }
  }
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

}  // namespace

void Simulation::KeySet::reset(std::size_t expected) {
  std::size_t capacity = 16;
  while (capacity < 2 * expected) capacity <<= 1;
  slots_.assign(capacity, kEmpty);
  mask_ = capacity - 1;
}

std::size_t Simulation::KeySet::home(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of the product are well mixed.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask_;
}

void Simulation::KeySet::insert(std::uint64_t key) {
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    if (slots_[i] == key) return;
    if (slots_[i] == kEmpty) {
      slots_[i] = key;
      return;
    }
  }
}

bool Simulation::KeySet::contains(std::uint64_t key) const {
  if (slots_.empty()) return false;
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    if (slots_[i] == key) return true;
    if (slots_[i] == kEmpty) return false;
  }
}

std::uint64_t Simulation::total_runs() {
  return g_simulation_runs.load(std::memory_order_relaxed);
}
void Simulation::reset_run_counter() {
  g_simulation_runs.store(0, std::memory_order_relaxed);
}
std::uint64_t Simulation::runs_on_this_thread() { return t_simulation_runs; }

Simulation::Simulation(const ConfigSet& configs, const Simulation* carry)
    : configs_(&configs),
      topology_(std::make_shared<const Topology>(Topology::build(configs))) {
  // Poll on the orchestration thread before fanning out to the pool (pool
  // workers never see the ambient token, by design — cancellation stops
  // whole simulations, not individual destinations).
  poll_cancellation();
  g_simulation_runs.fetch_add(1, std::memory_order_relaxed);
  ++t_simulation_runs;
  flat_ = std::make_shared<const FlatTopology>(
      FlatTopology::build(*topology_, configs));
  const int n = topology_->router_count();
  const int hosts = topology_->host_count();
  fib_columns_.resize(static_cast<std::size_t>(hosts));
  dest_dist_.resize(static_cast<std::size_t>(hosts));
  index_filters();
  // Hot-potato selection only ever consults distances TOWARDS border
  // routers, so those are the only rows computed eagerly (the old code
  // materialized the full R×R matrix here — an O(R²) memory cliff at
  // 10⁴ routers).
  if (!flat_->sessions().empty()) compute_border_distances();
  const std::vector<Distances> carried =
      carry != nullptr ? carried_vectors(*carry) : std::vector<Distances>{};
  const auto& host_ids = topology_->host_ids();
  recomputed_hosts_ = host_ids;
  std::vector<signed char> actions(host_ids.size());
  ThreadPool::shared().parallel_for(host_ids.size(), [&](std::size_t i) {
    const int gateway = flat_->host_gateway(host_ids[i] - n);
    actions[i] = static_cast<signed char>(compute_destination(
        host_ids[i], carried.empty() || gateway < 0
                         ? nullptr
                         : carried[static_cast<std::size_t>(gateway)]));
  });
  for (const signed char action : actions) {
    count_vector(static_cast<DestAction>(action));
  }
}

std::vector<Simulation::Distances> Simulation::carried_vectors(
    const Simulation& donor) const {
  const int n = topology_->router_count();
  std::vector<Distances> by_gateway;
  if (donor.topology_->router_count() != n) return by_gateway;
  // Check 1: the donor's OSPF graph survives, every half-edge at its cost,
  // so no distance grew. What remains is the set of half-edges added since.
  const std::vector<Arc> before = ospf_arcs(*donor.flat_, n);
  const std::vector<Arc> now = ospf_arcs(*flat_, n);
  if (!std::includes(now.begin(), now.end(), before.begin(), before.end())) {
    return by_gateway;
  }
  std::vector<Arc> added;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  // Check 2, per gateway: no added half-edge u→w relaxes the vector
  // (dist[u] ≤ cost + dist[w]), so no distance shrank either. The donor's
  // own half-edges satisfy this already: its vector is their fixpoint.
  by_gateway.resize(static_cast<std::size_t>(n));
  std::vector<char> checked(static_cast<std::size_t>(n), 0);
  const int donor_hosts = donor.topology_->host_count();
  for (int h = 0; h < donor_hosts; ++h) {
    const auto& vector = donor.dest_dist_[static_cast<std::size_t>(h)];
    const int gateway = donor.flat_->host_gateway(h);
    if (vector == nullptr || gateway < 0 ||
        checked[static_cast<std::size_t>(gateway)] != 0) {
      continue;
    }
    checked[static_cast<std::size_t>(gateway)] = 1;
    const std::vector<long>& dist = *vector;
    const bool exact =
        std::all_of(added.begin(), added.end(), [&](const Arc& arc) {
          const auto [from, to, cost] = arc;
          return dist[static_cast<std::size_t>(from)] <=
                 cost + dist[static_cast<std::size_t>(to)];
        });
    if (exact) by_gateway[static_cast<std::size_t>(gateway)] = vector;
  }
  return by_gateway;
}

void Simulation::count_vector(DestAction action) {
  switch (action) {
    case DestAction::kDistReused:
    case DestAction::kPatched:
      ++incremental_stats_.distance_vectors_reused;
      break;
    case DestAction::kDistComputed:
      ++incremental_stats_.distance_vectors_recomputed;
      break;
    case DestAction::kFresh:
      break;
  }
}

Simulation::Simulation(const ConfigSet& configs, const Simulation& previous,
                       const SimulationDelta& delta)
    : configs_(&configs),
      topology_(previous.topology_),
      flat_(previous.flat_),
      // The hot-potato border rows never see filters (computed over the
      // full adjacency, OSPF costs / RIP hop metric only) and the topology
      // is frozen, so they carry over by aliasing — no copy.
      to_border_(previous.to_border_) {
  poll_cancellation();
  g_simulation_runs.fetch_add(1, std::memory_order_relaxed);
  ++t_simulation_runs;
  const int n = topology_->router_count();
  const int hosts = topology_->host_count();
  fib_columns_.resize(static_cast<std::size_t>(hosts));
  dest_dist_.resize(static_cast<std::size_t>(hosts));
  // Filters changed, so the filter/ACL index must be rebuilt over the
  // CURRENT configs (the previous simulation's PrefixList pointers may
  // dangle after prefix-list edits). Cheap: one pass over the configs.
  index_filters();

  const auto& host_ids = topology_->host_ids();
  // A change can affect a destination iff their prefixes overlap, i.e.
  // agree on the shorter of the two lengths. So for each (change length,
  // host length) pair present, the change networks masked to the shorter
  // one go into a hash set, and a destination costs one lookup per
  // distinct change length instead of a scan over every change.
  std::uint64_t change_lengths = 0;  // bit L set: some prefix of length L
  std::uint64_t host_lengths = 0;
  for (const auto& change : delta.changes) {
    change_lengths |= std::uint64_t{1} << change.prefix.length();
  }
  for (int h = 0; h < hosts; ++h) {
    host_lengths |= std::uint64_t{1} << flat_->host_prefix(h).length();
  }
  KeySet dirty_keys;
  dirty_keys.reset(delta.changes.size() *
                   static_cast<std::size_t>(std::popcount(host_lengths)));
  for (const auto& change : delta.changes) {
    for (int length = 0; length <= 32; ++length) {
      if ((host_lengths >> length & 1) == 0) continue;
      dirty_keys.insert(prefix_key(change.prefix.network().bits(),
                                   std::min(length, change.prefix.length())));
    }
  }
  // A dirty link-state destination without a BGP part is patched when the
  // previous generation holds its vector and column.
  const auto patchable = [&](std::size_t idx) {
    const Distances& dist = previous.dest_dist_[idx];
    return flat_->host_route(static_cast<int>(idx)) ==
               FlatTopology::HostRoute::kOspf &&
           dist != nullptr && !dist->empty() &&
           previous.fib_columns_[idx] != nullptr &&
           !has_bgp_part(static_cast<int>(idx));
  };
  bool any_patchable = false;
  for (int h = 0; h < hosts && !any_patchable; ++h) {
    any_patchable = patchable(static_cast<std::size_t>(h));
  }
  // The changes by prefix, so a patched destination finds the routers
  // whose changes overlap it by binary search (changed_routers).
  std::vector<SimulationDelta::FilterChange> by_prefix;
  if (any_patchable) {
    by_prefix = delta.changes;
    std::sort(by_prefix.begin(), by_prefix.end(),
              [](const SimulationDelta::FilterChange& lhs,
                 const SimulationDelta::FilterChange& rhs) {
                return std::tuple(lhs.prefix.network().bits(),
                                  lhs.prefix.length(), lhs.router) <
                       std::tuple(rhs.prefix.network().bits(),
                                  rhs.prefix.length(), rhs.router);
              });
  }
  // Routers with a change overlapping `dest`, ascending. A change overlaps
  // iff its network lies inside `dest` (any length: a shorter prefix
  // starting there contains it) or it is a shorter prefix containing it.
  const auto changed_routers = [&](const Ipv4Prefix& dest) {
    const std::uint32_t first = dest.network().bits();
    const std::uint64_t last =
        first + (std::uint64_t{1} << (32 - dest.length())) - 1;
    std::vector<std::int32_t> routers;
    const auto bits_below = [](const SimulationDelta::FilterChange& change,
                               std::uint64_t bits) {
      return change.prefix.network().bits() < bits;
    };
    for (auto it = std::lower_bound(by_prefix.begin(), by_prefix.end(),
                                    std::uint64_t{first}, bits_below);
         it != by_prefix.end() && it->prefix.network().bits() <= last; ++it) {
      routers.push_back(it->router);
    }
    for (int length = 0; length < dest.length(); ++length) {
      if ((change_lengths >> length & 1) == 0) continue;
      const std::uint32_t bits = first & mask_of(length);
      if (bits == first) continue;  // found by the range scan above
      auto it = std::lower_bound(by_prefix.begin(), by_prefix.end(),
                                 std::uint64_t{bits}, bits_below);
      for (; it != by_prefix.end() && it->prefix.network().bits() == bits;
           ++it) {
        if (it->prefix.length() == length) routers.push_back(it->router);
      }
    }
    std::sort(routers.begin(), routers.end());
    routers.erase(std::unique(routers.begin(), routers.end()), routers.end());
    return routers;
  };
  // -1 = column inherited; otherwise the DestAction taken. Written by
  // disjoint indices in the parallel loop, tallied serially below.
  std::vector<signed char> actions(host_ids.size(), -1);
  ThreadPool::shared().parallel_for(host_ids.size(), [&](std::size_t i) {
    const int host = host_ids[i];
    const std::size_t idx = static_cast<std::size_t>(host - n);
    const Ipv4Prefix& host_prefix = flat_->host_prefix(static_cast<int>(idx));
    bool dirty = false;
    for (int length = 0; length <= 32 && !dirty; ++length) {
      dirty = (change_lengths >> length & 1) != 0 &&
              dirty_keys.contains(
                  prefix_key(host_prefix.network().bits(),
                             std::min(length, host_prefix.length())));
    }
    if (!dirty) {
      // Clean destination: alias the previous generation's immutable
      // column arena and distance vector (two pointer copies).
      fib_columns_[idx] = previous.fib_columns_[idx];
      dest_dist_[idx] = previous.dest_dist_[idx];
      return;
    }
    const Distances& dist = previous.dest_dist_[idx];
    if (patchable(idx)) {
      patch_destination(host, dist, *previous.fib_columns_[idx],
                        changed_routers(host_prefix));
      actions[i] = static_cast<signed char>(DestAction::kPatched);
      return;
    }
    actions[i] = static_cast<signed char>(compute_destination(host, dist));
  });
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i] < 0) {
      ++incremental_stats_.destinations_reused;
      continue;
    }
    recomputed_hosts_.push_back(host_ids[i]);
    ++incremental_stats_.destinations_recomputed;
    if (actions[i] == static_cast<signed char>(DestAction::kPatched)) {
      ++incremental_stats_.destinations_patched;
    }
    count_vector(static_cast<DestAction>(actions[i]));
  }
}

Simulation::Simulation(const Simulation& live, DonorTag)
    : configs_(nullptr),
      topology_(live.topology_),
      flat_(live.flat_),
      to_border_(live.to_border_),
      dest_dist_(live.dest_dist_),
      fib_columns_(live.fib_columns_) {}

std::shared_ptr<const Simulation> Simulation::column_donor() const {
  return std::shared_ptr<const Simulation>(new Simulation(*this, DonorTag{}));
}

void Simulation::require_configs(const char* what) const {
  if (configs_ == nullptr) {
    throw std::logic_error(std::string("Simulation::") + what +
                           " on a column donor, which holds no configs");
  }
}

const ConfigSet& Simulation::configs() const {
  require_configs("configs");
  return *configs_;
}

int Simulation::share_equal_columns(const Simulation& donor) {
  if (donor.topology_ != topology_) return 0;
  int shared = 0;
  for (std::size_t idx = 0; idx < fib_columns_.size(); ++idx) {
    auto& mine = fib_columns_[idx];
    const auto& theirs = donor.fib_columns_[idx];
    if (mine == theirs || mine == nullptr || theirs == nullptr ||
        !(*mine == *theirs)) {
      continue;
    }
    mine = theirs;
    dest_dist_[idx] = donor.dest_dist_[idx];
    ++shared;
  }
  return shared;
}

FibView Simulation::fib(int router, int host) const {
  const int n = topology_->router_count();
  if (router < 0 || router >= n || host < n ||
      host >= topology_->node_count()) {
    return {};
  }
  const auto& column = fib_columns_[static_cast<std::size_t>(host - n)];
  if (column == nullptr) return {};
  return column->view(router);
}

void Simulation::index_filters() {
  const auto& routers = configs_->routers;
  const FlatTopology& flat = *flat_;
  const int n = topology_->router_count();
  const std::size_t slot_count =
      static_cast<std::size_t>(flat.iface_slot_count());

  // Interned slot of a router's named interface (see FlatTopology);
  // unknown names (dangling distribute-list bindings) resolve to -1 and
  // are dropped — they could never match a link-end lookup anyway.
  const auto slot_of = [&](int r, const RouterConfig& config,
                           const std::string& name) -> std::int32_t {
    const InterfaceConfig* iface = config.find_interface(name);
    if (iface == nullptr) return -1;
    return flat.iface_base(r) +
           static_cast<std::int32_t>(iface - config.interfaces.data());
  };

  // IGP route filters: collect (slot, list) pairs in the legacy binding
  // order (OSPF distribute-lists then RIP ones, prefix lists in config
  // order), then STABLE-sort by slot — per-slot list order is preserved
  // exactly, so filter evaluation order (and thus every FIB byte) is
  // unchanged.
  std::vector<std::pair<std::int32_t, const PrefixList*>> igp_pairs;
  acl_slot_.assign(slot_count, nullptr);
  acl_free_ = true;
  bgp_filters_.assign(routers.size(), {});
  bgp_filter_pool_.clear();
  std::vector<std::pair<std::uint32_t, const PrefixList*>> bgp_pairs;
  // One router's prefix lists sorted by name (stable: same-named lists
  // keep config order), so each binding resolves by binary search.
  std::vector<std::pair<std::string_view, const PrefixList*>> by_name;
  const auto lists_named = [&by_name](std::string_view name) {
    return std::equal_range(
        by_name.begin(), by_name.end(),
        std::pair<std::string_view, const PrefixList*>{name, nullptr},
        [](const auto& lhs, const auto& rhs) {
          return lhs.first < rhs.first;
        });
  };
  std::size_t bound_entries = 0;
  for (int r = 0; r < n; ++r) {
    const auto& router = routers[static_cast<std::size_t>(
        topology_->node(r).config_index)];
    by_name.clear();
    for (const auto& pl : router.prefix_lists) {
      by_name.emplace_back(pl.name, &pl);
    }
    std::stable_sort(by_name.begin(), by_name.end(),
                     [](const auto& lhs, const auto& rhs) {
                       return lhs.first < rhs.first;
                     });
    const auto bind_igp = [&](const std::vector<DistributeList>& lists) {
      for (const auto& dl : lists) {
        const std::int32_t slot = slot_of(r, router, dl.interface);
        if (slot < 0) continue;
        const auto [first, last] = lists_named(dl.prefix_list);
        for (auto it = first; it != last; ++it) {
          igp_pairs.emplace_back(slot, it->second);
          bound_entries += it->second->entries.size();
        }
      }
    };
    if (router.ospf) bind_igp(router.ospf->distribute_lists);
    if (router.rip) bind_igp(router.rip->distribute_lists);

    for (std::size_t j = 0; j < router.interfaces.size(); ++j) {
      const auto& iface = router.interfaces[j];
      if (!iface.access_group_in) continue;
      if (const auto* acl = router.find_access_list(*iface.access_group_in)) {
        acl_slot_[static_cast<std::size_t>(flat.iface_base(r)) + j] = acl;
        acl_free_ = false;
      }
    }

    if (router.bgp) {
      bgp_pairs.clear();
      for (const auto& neighbor : router.bgp->neighbors) {
        for (const auto& name : neighbor.prefix_lists_in) {
          const auto [first, last] = lists_named(name);
          for (auto it = first; it != last; ++it) {
            bgp_pairs.emplace_back(neighbor.address.bits(), it->second);
          }
        }
      }
      if (bgp_pairs.empty()) continue;
      std::stable_sort(bgp_pairs.begin(), bgp_pairs.end(),
                       [](const auto& lhs, const auto& rhs) {
                         return lhs.first < rhs.first;
                       });
      auto& entries = bgp_filters_[static_cast<std::size_t>(
          topology_->node(r).config_index)];
      for (const auto& [peer_bits, list] : bgp_pairs) {
        if (entries.empty() || entries.back().peer_bits != peer_bits) {
          entries.push_back(BgpFilterEntry{
              peer_bits,
              static_cast<std::uint32_t>(bgp_filter_pool_.size()), 0});
        }
        bgp_filter_pool_.push_back(list);
        ++entries.back().count;
      }
    }
  }
  // A slot denies when any of its lists denies, so the deny-shaped lists
  // of all slots fold into one (slot, prefix) set; the rest keep the
  // ordered scan.
  deny_index_.reset(bound_entries);
  slot_has_denies_.assign(slot_count, 0);
  std::erase_if(igp_pairs, [&](const auto& pair) {
    const auto [slot, list] = pair;
    if (slot >= kMaxIndexedSlots || !is_deny_shaped(*list)) return false;
    for (const PrefixListEntry& entry : list->entries) {
      if (entry.permit) break;
      deny_index_.insert(prefix_key(entry.prefix.network().bits(),
                                    entry.prefix.length(),
                                    static_cast<std::uint64_t>(slot)));
      slot_has_denies_[static_cast<std::size_t>(slot)] = 1;
    }
    return true;
  });
  std::stable_sort(igp_pairs.begin(), igp_pairs.end(),
                   [](const auto& lhs, const auto& rhs) {
                     return lhs.first < rhs.first;
                   });
  igp_filter_pool_.resize(igp_pairs.size());
  igp_filter_offset_.assign(slot_count + 1, 0);
  for (const auto& [slot, list] : igp_pairs) {
    ++igp_filter_offset_[static_cast<std::size_t>(slot) + 1];
  }
  for (std::size_t s = 1; s <= slot_count; ++s) {
    igp_filter_offset_[s] += igp_filter_offset_[s - 1];
  }
  // igp_pairs is sorted by slot, so a single forward fill lands each
  // list in its slot's range in preserved order.
  for (std::size_t i = 0; i < igp_pairs.size(); ++i) {
    igp_filter_pool_[i] = igp_pairs[i].second;
  }
}

bool Simulation::denied_igp(std::int32_t iface_slot,
                            const Ipv4Prefix& dest) const {
  if (iface_slot < 0) return false;
  if (slot_has_denies_[static_cast<std::size_t>(iface_slot)] != 0 &&
      deny_index_.contains(
          prefix_key(dest.network().bits(), dest.length(),
                     static_cast<std::uint64_t>(iface_slot)))) {
    return true;
  }
  const std::int32_t first =
      igp_filter_offset_[static_cast<std::size_t>(iface_slot)];
  const std::int32_t last =
      igp_filter_offset_[static_cast<std::size_t>(iface_slot) + 1];
  for (std::int32_t i = first; i < last; ++i) {
    if (!igp_filter_pool_[static_cast<std::size_t>(i)]->permits(dest)) {
      return true;
    }
  }
  return false;
}

bool Simulation::denied_bgp(int router, std::uint32_t peer_bits,
                            const Ipv4Prefix& dest) const {
  const auto& entries = bgp_filters_[static_cast<std::size_t>(
      topology_->node(router).config_index)];
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), peer_bits,
      [](const BgpFilterEntry& entry, std::uint32_t bits) {
        return entry.peer_bits < bits;
      });
  if (it == entries.end() || it->peer_bits != peer_bits) return false;
  for (std::uint32_t i = 0; i < it->count; ++i) {
    if (!bgp_filter_pool_[it->first + i]->permits(dest)) return true;
  }
  return false;
}

bool Simulation::acl_blocks(std::int32_t iface_slot, const Ipv4Prefix* src,
                            const Ipv4Prefix& dst) const {
  if (src == nullptr || iface_slot < 0) return false;
  const AccessList* acl = acl_slot_[static_cast<std::size_t>(iface_slot)];
  if (acl == nullptr) return false;
  return !acl->permits(*src, dst);
}

void Simulation::compute_border_distances() {
  const FlatTopology& flat = *flat_;
  const auto& borders = flat.border_routers();
  const int n = topology_->router_count();
  auto rows = std::make_shared<std::vector<std::vector<long>>>(
      borders.size());
  // Distances FROM every router TO one border = reverse Dijkstra from the
  // border relaxing with the neighbor's forwarding cost (edge_cost_in).
  // One row per border fans out over the pool with disjoint writes.
  ThreadPool::shared().parallel_for(borders.size(), [&](std::size_t bi) {
    auto& dist = (*rows)[bi];
    dist.assign(static_cast<std::size_t>(n), kInf);
    const std::int32_t border = borders[bi];
    dist[static_cast<std::size_t>(border)] = 0;
    std::vector<HeapItem> heap;
    heap_push(heap, 0, border);
    while (!heap.empty()) {
      const auto [d, u] = heap_pop(heap);
      if (d != dist[static_cast<std::size_t>(u)]) continue;
      const std::int32_t last = flat.last_out(u);
      for (std::int32_t e = flat.first_out(u); e < last; ++e) {
        const std::uint8_t flags = flat.edge_flags(e);
        if ((flags & FlatTopology::kIgp) == 0) continue;
        const std::int32_t w = flat.edge_target(e);
        // Cost of w forwarding TOWARDS u.
        const long cost =
            (flags & FlatTopology::kOspf) != 0 ? flat.edge_cost_in(e) : 1;
        if (d + cost < dist[static_cast<std::size_t>(w)]) {
          dist[static_cast<std::size_t>(w)] = d + cost;
          heap_push(heap, d + cost, w);
        }
      }
    }
  });
  to_border_ = std::move(rows);
}

std::vector<long> Simulation::igp_distances(int from,
                                             const std::vector<int>& targets,
                                             std::uint64_t* settled) const {
  const FlatTopology& flat = *flat_;
  const int n = topology_->router_count();
  // Per-thread scratch, reset through `reached` so a call costs what it
  // settles, not R.
  thread_local std::vector<long> dist;
  thread_local std::vector<char> target;  // 1 = pending, 2 = settled
  thread_local std::vector<std::int32_t> reached;
  thread_local std::vector<HeapItem> heap;
  if (dist.size() < static_cast<std::size_t>(n)) {
    dist.resize(static_cast<std::size_t>(n), kInf);
    target.resize(static_cast<std::size_t>(n), 0);
  }
  std::size_t pending = 0;
  for (const int t : targets) {
    char& mark = target[static_cast<std::size_t>(t)];
    if (mark == 0) ++pending;
    mark = 1;
  }
  std::uint64_t settled_nodes = 0;
  reached.assign(1, from);
  dist[static_cast<std::size_t>(from)] = 0;
  heap.clear();
  heap_push(heap, 0, from);
  while (pending > 0 && !heap.empty()) {
    const auto [d, u] = heap_pop(heap);
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    ++settled_nodes;
    char& mark = target[static_cast<std::size_t>(u)];
    if (mark == 1) {
      mark = 2;
      if (--pending == 0) break;
    }
    const std::int32_t last = flat.last_out(u);
    for (std::int32_t e = flat.first_out(u); e < last; ++e) {
      const std::uint8_t flags = flat.edge_flags(e);
      if ((flags & FlatTopology::kIgp) == 0) continue;
      const std::int32_t w = flat.edge_target(e);
      const long cost =
          (flags & FlatTopology::kOspf) != 0 ? flat.edge_cost_out(e) : 1;
      long& best = dist[static_cast<std::size_t>(w)];
      if (d + cost < best) {
        if (best == kInf) reached.push_back(w);
        best = d + cost;
        heap_push(heap, d + cost, w);
      }
    }
  }
  // A target is settled, or unreachable once the heap ran dry.
  std::vector<long> out;
  out.reserve(targets.size());
  for (const int t : targets) {
    const bool done = target[static_cast<std::size_t>(t)] == 2;
    out.push_back(done ? dist[static_cast<std::size_t>(t)] : -1);
  }
  for (const int t : targets) target[static_cast<std::size_t>(t)] = 0;
  for (const std::int32_t r : reached) dist[static_cast<std::size_t>(r)] = kInf;
  if (settled != nullptr) *settled = settled_nodes;
  return out;
}

void Simulation::compute_bgp_destination(
    int host, int gateway, const Ipv4Prefix& dest_prefix,
    std::vector<std::vector<NextHop>>& slots,
    std::vector<std::int32_t>& touched) const {
  const FlatTopology& flat = *flat_;
  const int n = topology_->router_count();
  const int hidx = host - n;
  // Fill FIBs of routers in autonomous systems OTHER than the origin AS.
  if (!has_bgp_part(hidx)) return;
  const int origin_as = flat.router_as(gateway);
  const auto push_hop = [&](int r, NextHop hop) {
    auto& slot = slots[static_cast<std::size_t>(r)];
    if (slot.empty()) touched.push_back(r);
    slot.push_back(hop);
  };

  // AS-level path-vector (shortest AS path) over dense AS indices,
  // honoring per-session inbound filters.
  thread_local std::vector<long> as_dist;
  as_dist.assign(static_cast<std::size_t>(flat.as_count()), kInf);
  as_dist[static_cast<std::size_t>(flat.as_index(gateway))] = 0;
  for (;;) {
    bool changed = false;
    for (const auto& session : flat.sessions()) {
      const auto import = [&](int importer, int exporter,
                              std::uint32_t peer_bits) {
        const auto imp_as = static_cast<std::size_t>(flat.as_index(importer));
        const auto exp_as = static_cast<std::size_t>(flat.as_index(exporter));
        if (as_dist[exp_as] >= kInf) return;
        if (denied_bgp(importer, peer_bits, dest_prefix)) return;
        const long cand = as_dist[exp_as] + 1;
        if (cand < as_dist[imp_as]) {
          as_dist[imp_as] = cand;
          changed = true;
        }
      };
      import(session.router_a, session.router_b, session.peer_bits_at_a);
      import(session.router_b, session.router_a, session.peer_bits_at_b);
    }
    if (!changed) break;
  }

  const auto& to_border = *to_border_;
  for (int r = 0; r < n; ++r) {
    const int my_as = flat.router_as(r);
    if (my_as < 0 || my_as == origin_as) continue;
    const long my_dist = as_dist[static_cast<std::size_t>(flat.as_index(r))];
    if (my_dist >= kInf) continue;

    // Candidate egress sessions: those on a shortest AS path, permitted.
    // Hot-potato: the router picks the border router closest by IGP.
    int best_border = -1;
    int best_session_link = -1;
    long best_igp = kInf;
    for (const auto& session : flat.sessions()) {
      const auto consider = [&](int border, int peer,
                                std::uint32_t peer_bits) {
        if (flat.router_as(border) != my_as) return;
        if (as_dist[static_cast<std::size_t>(flat.as_index(peer))] + 1 !=
            my_dist) {
          return;
        }
        if (denied_bgp(border, peer_bits, dest_prefix)) return;
        const long igp = to_border[static_cast<std::size_t>(
            flat.border_index(border))][static_cast<std::size_t>(r)];
        if (igp >= kInf) return;
        if (igp < best_igp ||
            (igp == best_igp &&
             (border < best_border ||
              (border == best_border && session.link < best_session_link)))) {
          best_igp = igp;
          best_border = border;
          best_session_link = session.link;
        }
      };
      consider(session.router_a, session.router_b, session.peer_bits_at_a);
      consider(session.router_b, session.router_a, session.peer_bits_at_b);
    }
    if (best_border < 0) continue;

    if (r == best_border) {
      const int other = flat.link_node_a(best_session_link) == r
                            ? flat.link_node_b(best_session_link)
                            : flat.link_node_a(best_session_link);
      push_hop(r, NextHop{best_session_link, other});
      continue;
    }
    // Internal transit towards the chosen border router along IGP
    // shortest paths (each hop re-evaluates, so only the immediate next
    // hops are installed here).
    const auto& border_row =
        to_border[static_cast<std::size_t>(flat.border_index(best_border))];
    const std::int32_t last = flat.last_out(r);
    for (std::int32_t e = flat.first_out(r); e < last; ++e) {
      const std::uint8_t flags = flat.edge_flags(e);
      if ((flags & FlatTopology::kIgp) == 0) continue;
      const std::int32_t w = flat.edge_target(e);
      const long out_cost =
          (flags & FlatTopology::kOspf) != 0 ? flat.edge_cost_out(e) : 1;
      if (border_row[static_cast<std::size_t>(w)] + out_cost !=
          border_row[static_cast<std::size_t>(r)]) {
        continue;
      }
      if (denied_igp(flat.edge_iface(e), dest_prefix)) continue;
      push_hop(r, NextHop{flat.edge_link(e), w});
    }
    auto& slot = slots[static_cast<std::size_t>(r)];
    std::sort(slot.begin(), slot.end());
  }
}

bool Simulation::has_bgp_part(int host_index) const {
  const FlatTopology& flat = *flat_;
  const int gateway = flat.host_gateway(host_index);
  return gateway >= 0 && flat.router_as(gateway) >= 0 &&
         flat.host_bgp_advertised(host_index) && !flat.sessions().empty();
}

void Simulation::append_igp_hops(int r, const long* dist, bool in_ospf,
                                 const Ipv4Prefix& dest_prefix,
                                 std::vector<NextHop>& slot) const {
  if (dist[static_cast<std::size_t>(r)] >= kInf) return;
  const FlatTopology& flat = *flat_;
  const std::size_t before = slot.size();
  const std::int32_t last = flat.last_out(r);
  for (std::int32_t e = flat.first_out(r); e < last; ++e) {
    const std::uint8_t flags = flat.edge_flags(e);
    if ((flags & (in_ospf ? FlatTopology::kOspf : FlatTopology::kRip)) == 0) {
      continue;
    }
    const std::int32_t w = flat.edge_target(e);
    const long out_cost = in_ospf ? flat.edge_cost_out(e) : 1;
    if (dist[static_cast<std::size_t>(w)] + out_cost !=
        dist[static_cast<std::size_t>(r)]) {
      continue;
    }
    if (denied_igp(flat.edge_iface(e), dest_prefix)) continue;
    slot.push_back(NextHop{flat.edge_link(e), w});
  }
  if (slot.size() != before) std::sort(slot.begin(), slot.end());
}

void Simulation::apply_static_route(int r, Ipv4Address host_address,
                                    const Ipv4Prefix& dest_prefix,
                                    std::vector<NextHop>& slot) const {
  const auto& router = configs_->routers[static_cast<std::size_t>(
      topology_->node(r).config_index)];
  const StaticRoute* best = nullptr;
  for (const auto& route_entry : router.static_routes) {
    if (!route_entry.prefix.contains(host_address)) continue;
    if (best == nullptr ||
        route_entry.prefix.length() > best->prefix.length()) {
      best = &route_entry;
    }
  }
  if (best == nullptr) return;
  const bool overrides =
      slot.empty() || best->prefix.length() >= dest_prefix.length();
  if (!overrides) return;
  // Resolve the next hop to a directly connected neighbor (cold path:
  // endpoint addresses live only in the Topology's link ends).
  for (const int link_id : topology_->links_of(r)) {
    const Link& link = topology_->link(link_id);
    const LinkEnd& far = link.other_end(r);
    if (far.address == best->next_hop) {
      slot.assign(1, NextHop{link_id, far.node});
      return;
    }
  }
  // Unresolvable next hop: keep the RIB route.
}

void Simulation::patch_destination(int host, const Distances& dist,
                                   const FibColumn& previous,
                                   const std::vector<std::int32_t>& changed) {
  const FlatTopology& flat = *flat_;
  const int n = topology_->router_count();
  const int hidx = host - n;
  const int gateway = flat.host_gateway(hidx);
  const Ipv4Prefix dest_prefix = flat.host_prefix(hidx);
  const Ipv4Address host_address = flat.host_address(hidx);

  // Refill the changed routers' slots exactly as compute_destination
  // fills them for a link-state destination without a BGP part.
  DestScratch& scratch = dest_scratch(n);
  for (const std::int32_t r : changed) {
    auto& slot = scratch.slots[static_cast<std::size_t>(r)];
    scratch.touched.push_back(r);
    if (r == gateway) {
      const int gw_link = flat.host_gateway_link(hidx);
      if (gw_link >= 0) slot.push_back(NextHop{gw_link, host});
      continue;
    }
    append_igp_hops(r, dist->data(), /*in_ospf=*/true, dest_prefix, slot);
    apply_static_route(r, host_address, dest_prefix, slot);
  }

  auto column = std::make_shared<FibColumn>();
  column->offset.resize(static_cast<std::size_t>(n) + 1);
  std::uint32_t total = 0;
  auto next = changed.begin();
  for (int r = 0; r < n; ++r) {
    column->offset[static_cast<std::size_t>(r)] = total;
    if (next != changed.end() && *next == r) {
      total += static_cast<std::uint32_t>(
          scratch.slots[static_cast<std::size_t>(r)].size());
      ++next;
    } else {
      total += previous.offset[static_cast<std::size_t>(r) + 1] -
               previous.offset[static_cast<std::size_t>(r)];
    }
  }
  column->offset[static_cast<std::size_t>(n)] = total;
  column->pool.reserve(total);
  next = changed.begin();
  for (int r = 0; r < n; ++r) {
    if (next != changed.end() && *next == r) {
      const auto& slot = scratch.slots[static_cast<std::size_t>(r)];
      column->pool.insert(column->pool.end(), slot.begin(), slot.end());
      ++next;
      continue;
    }
    const FibView kept = previous.view(r);
    column->pool.insert(column->pool.end(), kept.begin(), kept.end());
  }
  fib_columns_[static_cast<std::size_t>(hidx)] = std::move(column);
  dest_dist_[static_cast<std::size_t>(hidx)] = dist;
}

Simulation::DestAction Simulation::compute_destination(
    int host, const Distances& reuse_dist) {
  const FlatTopology& flat = *flat_;
  const int n = topology_->router_count();
  const int hidx = host - n;
  const int gateway = flat.host_gateway(hidx);
  if (gateway < 0) return DestAction::kFresh;
  const Ipv4Prefix dest_prefix = flat.host_prefix(hidx);

  DestScratch& scratch = dest_scratch(n);
  auto& slots = scratch.slots;
  auto& touched = scratch.touched;
  const auto push_hop = [&](int r, NextHop hop) {
    auto& slot = slots[static_cast<std::size_t>(r)];
    if (slot.empty()) touched.push_back(r);
    slot.push_back(hop);
  };

  // Delivery at the gateway: the connected host link (never filtered —
  // connected routes are not subject to distribute-lists).
  const int gw_link = flat.host_gateway_link(hidx);
  if (gw_link >= 0) push_hop(gateway, NextHop{gw_link, host});

  const auto route = flat.host_route(hidx);
  const bool in_ospf = route == FlatTopology::HostRoute::kOspf;
  const bool in_rip = route == FlatTopology::HostRoute::kRip;

  DestAction action = DestAction::kFresh;
  const long* dist = nullptr;
  if (in_ospf && reuse_dist != nullptr && !reuse_dist->empty()) {
    // Link-state distances are computed over the full LSDB — filters only
    // gate next-hop installation — so a previous simulation's converged
    // vector for this destination is still exact after filter edits.
    dist = reuse_dist->data();
    action = DestAction::kDistReused;
  } else if (in_ospf) {
    // Link-state: reverse Dijkstra from the gateway; filters do NOT affect
    // distances, only next-hop installation below.
    action = DestAction::kDistComputed;
    scratch.dist.assign(static_cast<std::size_t>(n), kInf);
    scratch.dist[static_cast<std::size_t>(gateway)] = 0;
    auto& heap = scratch.heap;
    heap.clear();
    heap_push(heap, 0, gateway);
    while (!heap.empty()) {
      const auto [d, u] = heap_pop(heap);
      if (d != scratch.dist[static_cast<std::size_t>(u)]) continue;
      const std::int32_t last = flat.last_out(u);
      for (std::int32_t e = flat.first_out(u); e < last; ++e) {
        if ((flat.edge_flags(e) & FlatTopology::kOspf) == 0) continue;
        const std::int32_t w = flat.edge_target(e);
        // Cost of w forwarding TOWARDS u.
        const long cost = flat.edge_cost_in(e);
        if (d + cost < scratch.dist[static_cast<std::size_t>(w)]) {
          scratch.dist[static_cast<std::size_t>(w)] = d + cost;
          heap_push(heap, d + cost, w);
        }
      }
    }
    dist = scratch.dist.data();
  } else if (in_rip) {
    // Distance-vector: filters act at import, so they shape the distances
    // themselves — a cached vector from before a filter edit would be
    // stale, hence always recomputed. With hop metrics the distance-vector
    // fixpoint is the BFS distance from the gateway over the RIP half-edges
    // u→w whose importing interface at w admits the destination.
    action = DestAction::kDistComputed;
    scratch.dist.assign(static_cast<std::size_t>(n), kInf);
    scratch.dist[static_cast<std::size_t>(gateway)] = 0;
    auto& queue = scratch.queue;
    queue.assign(1, gateway);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::int32_t u = queue[head];
      const long next = scratch.dist[static_cast<std::size_t>(u)] + 1;
      const std::int32_t last = flat.last_out(u);
      for (std::int32_t e = flat.first_out(u); e < last; ++e) {
        if ((flat.edge_flags(e) & FlatTopology::kRip) == 0) continue;
        const std::int32_t w = flat.edge_target(e);
        if (scratch.dist[static_cast<std::size_t>(w)] != kInf) continue;
        if (denied_igp(flat.edge_peer_iface(e), dest_prefix)) continue;
        scratch.dist[static_cast<std::size_t>(w)] = next;
        queue.push_back(w);
      }
    }
    dist = scratch.dist.data();
  }

  // IGP next hops: every equal-cost candidate not denied by a filter on
  // the incoming interface.
  if (in_ospf || in_rip) {
    for (int r = 0; r < n; ++r) {
      if (r == gateway) continue;
      auto& slot = slots[static_cast<std::size_t>(r)];
      append_igp_hops(r, dist, in_ospf, dest_prefix, slot);
      if (!slot.empty()) touched.push_back(r);
    }
  }

  compute_bgp_destination(host, gateway, dest_prefix, slots, touched);

  // Static routes: longest-prefix match against the protocol route for
  // the host LAN; administrative distance 1 beats IGP/BGP at equal
  // length. Connected delivery at the gateway always wins.
  const Ipv4Address host_address = flat.host_address(hidx);
  for (const int r : flat.routers_with_statics()) {
    if (r == gateway) continue;
    auto& slot = slots[static_cast<std::size_t>(r)];
    touched.push_back(r);
    apply_static_route(r, host_address, dest_prefix, slot);
  }

  // Pack the per-router slots into this destination's immutable column
  // arena: entries of router r at pool[offset[r] .. offset[r+1]).
  auto column = std::make_shared<FibColumn>();
  column->offset.resize(static_cast<std::size_t>(n) + 1);
  std::uint32_t total = 0;
  for (int r = 0; r < n; ++r) {
    column->offset[static_cast<std::size_t>(r)] = total;
    total += static_cast<std::uint32_t>(
        slots[static_cast<std::size_t>(r)].size());
  }
  column->offset[static_cast<std::size_t>(n)] = total;
  column->pool.reserve(total);
  for (int r = 0; r < n; ++r) {
    const auto& slot = slots[static_cast<std::size_t>(r)];
    column->pool.insert(column->pool.end(), slot.begin(), slot.end());
  }
  fib_columns_[static_cast<std::size_t>(hidx)] = std::move(column);

  if (in_ospf) {
    if (action == DestAction::kDistReused) {
      dest_dist_[static_cast<std::size_t>(hidx)] = reuse_dist;
    } else {
      dest_dist_[static_cast<std::size_t>(hidx)] =
          std::make_shared<const std::vector<long>>(scratch.dist);
    }
  }
  return action;
}

bool Simulation::walk(int router, int dst_host, const Ipv4Prefix* src_prefix,
                      const Ipv4Prefix& dst_prefix,
                      std::vector<char>& visited, std::vector<int>& current,
                      std::vector<std::vector<int>>& out, int depth,
                      bool& truncated) const {
  if (depth > kMaxPathDepth || out.size() >= kMaxPathsPerFlow) {
    truncated = true;
    return false;
  }
  const int n = topology_->router_count();
  bool delivered = false;
  for (const NextHop& hop : fib(router, dst_host)) {
    if (hop.neighbor == dst_host) {
      auto complete = current;
      complete.push_back(dst_host);
      out.push_back(std::move(complete));
      delivered = true;
      continue;
    }
    if (hop.neighbor >= n) continue;  // some other host: not forwardable
    if (visited[static_cast<std::size_t>(hop.neighbor)] != 0) {
      continue;  // forwarding loop — branch is not a complete path
    }
    // Inbound packet filter at the next hop: the branch is dropped, not
    // rerouted (a data-plane black hole).
    if (src_prefix != nullptr &&
        acl_blocks(flat_->link_iface_at(hop.link, hop.neighbor), src_prefix,
                   dst_prefix)) {
      continue;
    }
    visited[static_cast<std::size_t>(hop.neighbor)] = 1;
    current.push_back(hop.neighbor);
    delivered |= walk(hop.neighbor, dst_host, src_prefix, dst_prefix,
                      visited, current, out, depth + 1, truncated);
    current.pop_back();
    visited[static_cast<std::size_t>(hop.neighbor)] = 0;
  }
  return delivered;
}

std::vector<std::vector<int>> Simulation::node_paths(int src_host,
                                                     int dst_host,
                                                     bool* truncated) const {
  require_configs("node_paths");
  std::vector<std::vector<int>> out;
  if (truncated != nullptr) *truncated = false;
  if (src_host == dst_host) return out;
  const FlatTopology& flat = *flat_;
  const int n = topology_->router_count();
  const int gateway = flat.host_gateway(src_host - n);
  if (gateway < 0) return out;
  const Ipv4Prefix src_prefix = flat.host_prefix(src_host - n);
  const Ipv4Prefix dst_prefix = flat.host_prefix(dst_host - n);
  // The gateway's host-facing interface may itself filter inbound.
  const std::int32_t last = flat.last_out(src_host);
  for (std::int32_t e = flat.first_out(src_host); e < last; ++e) {
    if (flat.edge_target(e) != gateway) continue;
    if (acl_blocks(flat.edge_peer_iface(e), &src_prefix, dst_prefix)) {
      return out;
    }
  }
  WalkScratch& scratch = walk_scratch();
  scratch.visited.assign(static_cast<std::size_t>(topology_->node_count()),
                         0);
  scratch.visited[static_cast<std::size_t>(gateway)] = 1;
  scratch.current.clear();
  scratch.current.push_back(src_host);
  scratch.current.push_back(gateway);
  bool hit_caps = false;
  walk(gateway, dst_host, &src_prefix, dst_prefix, scratch.visited,
       scratch.current, out, 0, hit_caps);
  if (truncated != nullptr) *truncated = hit_caps;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Path> Simulation::paths(int src_host, int dst_host,
                                    bool* truncated) const {
  std::vector<Path> named;
  for (const auto& node_path : node_paths(src_host, dst_host, truncated)) {
    Path path;
    path.reserve(node_path.size());
    for (int node : node_path) path.push_back(topology_->node(node).name);
    named.push_back(std::move(path));
  }
  std::sort(named.begin(), named.end());
  return named;
}

Simulation::FlowColumn Simulation::flow_column(
    int dst_host, const std::vector<char>* sources) const {
  require_configs("flow_column");
  const int n = topology_->router_count();
  const int host_count = topology_->node_count() - n;
  FlowColumn column;
  column.group_of.assign(static_cast<std::size_t>(host_count), -1);
  // Appends `paths` (each starting `skip` nodes before the gateway) as the
  // next group, sorted and duplicate-free; -1 when there are none.
  const auto add_group = [&column](std::vector<std::vector<int>>& paths,
                                   std::size_t skip) -> std::int32_t {
    if (paths.empty()) return -1;
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
    for (const auto& path : paths) {
      column.nodes.insert(column.nodes.end(),
                          path.begin() + static_cast<std::ptrdiff_t>(skip),
                          path.end());
      column.path_first.push_back(
          static_cast<std::uint32_t>(column.nodes.size()));
    }
    column.group_first.push_back(
        static_cast<std::uint32_t>(column.path_first.size() - 1));
    return static_cast<std::int32_t>(column.group_first.size() - 2);
  };
  const auto walked = [&](int s) {
    return n + s != dst_host &&
           (sources == nullptr || (*sources)[static_cast<std::size_t>(s)]);
  };

  if (!acl_free_) {
    // Inbound packet ACLs make every walk depend on its source.
    for (int s = 0; s < host_count; ++s) {
      if (!walked(s)) continue;
      bool hit_caps = false;
      auto paths = node_paths(n + s, dst_host, &hit_caps);
      column.truncated += hit_caps ? 1 : 0;
      column.group_of[static_cast<std::size_t>(s)] = add_group(paths, 1);
    }
  } else {
    // No ACL anywhere: the walk from a gateway does not depend on the
    // source, so all sources behind one gateway share one enumeration.
    // Per gateway: its group (kUnwalked until walked, -1 when nothing is
    // delivered) and whether its walk hit the caps.
    constexpr std::int32_t kUnwalked = std::numeric_limits<std::int32_t>::min();
    const Ipv4Prefix dst_prefix = flat_->host_prefix(dst_host - n);
    WalkScratch& scratch = walk_scratch();
    auto& gateway_group = scratch.gateway_group;
    gateway_group.assign(static_cast<std::size_t>(n), kUnwalked);
    auto& gateway_capped = scratch.gateway_capped;
    gateway_capped.assign(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<int>> paths;
    for (int s = 0; s < host_count; ++s) {
      if (!walked(s)) continue;
      const int gateway = flat_->host_gateway(s);
      if (gateway < 0) continue;
      std::int32_t& group = gateway_group[static_cast<std::size_t>(gateway)];
      if (group == kUnwalked) {
        scratch.visited.assign(
            static_cast<std::size_t>(topology_->node_count()), 0);
        scratch.visited[static_cast<std::size_t>(gateway)] = 1;
        scratch.current.clear();
        scratch.current.push_back(gateway);
        paths.clear();
        bool hit_caps = false;
        walk(gateway, dst_host, nullptr, dst_prefix, scratch.visited,
             scratch.current, paths, 0, hit_caps);
        gateway_capped[static_cast<std::size_t>(gateway)] = hit_caps ? 1 : 0;
        group = add_group(paths, 0);
      }
      column.truncated += gateway_capped[static_cast<std::size_t>(gateway)];
      column.group_of[static_cast<std::size_t>(s)] = group;
    }
  }
  return column;
}

std::vector<std::shared_ptr<const Simulation::FlowColumn>>
Simulation::flow_columns(const std::vector<int>& dst_hosts) const {
  // One slot per destination: the destinations fan out over the pool and
  // each writes only its own slot.
  std::vector<std::shared_ptr<const FlowColumn>> columns(dst_hosts.size());
  ThreadPool::shared().parallel_for(dst_hosts.size(), [&](std::size_t i) {
    columns[i] = std::make_shared<const FlowColumn>(flow_column(dst_hosts[i]));
  });
  std::size_t truncated = 0;
  for (const auto& column : columns) truncated += column->truncated;
  report_truncated(truncated);
  return columns;
}

DataPlane Simulation::extract_data_plane() const {
  return named_data_plane(*topology_, flow_columns(topology_->host_ids()));
}

DataPlane Simulation::named_data_plane(
    const Topology& topology,
    const std::vector<std::shared_ptr<const FlowColumn>>& columns) {
  DataPlane dp;
  const int n = topology.router_count();
  std::vector<std::vector<Path>> named;  // per group, lazily
  for (std::size_t d = 0; d < columns.size(); ++d) {
    if (columns[d] == nullptr) continue;
    const FlowColumn& column = *columns[d];
    const std::string& dst_name = topology.node(n + static_cast<int>(d)).name;
    named.assign(column.group_first.size() - 1, {});
    for (std::size_t s = 0; s < column.group_of.size(); ++s) {
      const std::int32_t group = column.group_of[s];
      if (group < 0) continue;
      // A group's gateway…destination suffixes, sorted by name. Prepending
      // the source keeps that order: all paths of a flow share it.
      auto& suffixes = named[static_cast<std::size_t>(group)];
      if (suffixes.empty()) {
        const std::uint32_t last =
            column.group_first[static_cast<std::size_t>(group) + 1];
        for (std::uint32_t p = column.group_first[static_cast<std::size_t>(
                 group)];
             p < last; ++p) {
          Path path;
          for (std::uint32_t i = column.path_first[p];
               i < column.path_first[p + 1]; ++i) {
            path.push_back(topology.node(column.nodes[i]).name);
          }
          suffixes.push_back(std::move(path));
        }
        std::sort(suffixes.begin(), suffixes.end());
      }
      const std::string& src_name =
          topology.node(n + static_cast<int>(s)).name;
      std::vector<Path> flow_paths;
      flow_paths.reserve(suffixes.size());
      for (const Path& suffix : suffixes) {
        Path path;
        path.reserve(suffix.size() + 1);
        path.push_back(src_name);
        path.insert(path.end(), suffix.begin(), suffix.end());
        flow_paths.push_back(std::move(path));
      }
      dp.flows.emplace(FlowKey{src_name, dst_name}, std::move(flow_paths));
    }
  }
  return dp;
}

void Simulation::report_truncated(std::size_t flows) {
  if (flows == 0) return;
  // Capped enumeration must never be silently mistaken for complete
  // coverage.
  std::fprintf(stderr,
               "confmask: path enumeration truncated for %zu flow(s) "
               "(caps: %zu paths/flow, depth %d); data-plane coverage is "
               "partial\n",
               flows, kMaxPathsPerFlow, kMaxPathDepth);
}

const Ipv4Prefix& Simulation::host_prefix(int host) const {
  return flat_->host_prefix(host - topology_->router_count());
}

bool Simulation::reaches(int router, int host) const {
  std::vector<std::vector<int>> out;
  WalkScratch& scratch = walk_scratch();
  scratch.visited.assign(static_cast<std::size_t>(topology_->node_count()),
                         0);
  scratch.visited[static_cast<std::size_t>(router)] = 1;
  scratch.current.clear();
  scratch.current.push_back(router);
  const Ipv4Prefix dst_prefix =
      flat_->host_prefix(host - topology_->router_count());
  // Control-plane reachability: packet-filter ACLs are not evaluated
  // (src == nullptr) because there is no source host.
  bool hit_caps = false;
  return walk(router, host, nullptr, dst_prefix, scratch.visited,
              scratch.current, out, 0, hit_caps);
}

std::vector<char> Simulation::routers_reaching(int host) const {
  const int n = topology_->router_count();
  std::vector<char> reach(static_cast<std::size_t>(n), 0);
  if (host < n || host >= topology_->node_count()) return reach;
  const auto& column = fib_columns_[static_cast<std::size_t>(host - n)];
  if (column == nullptr) return reach;
  // Reverse FIB edges for this destination, built as CSR over the packed
  // column (one counting pass, one fill pass — no per-router vectors).
  // Routers delivering directly seed the sweep; the closure is
  // order-independent.
  WalkScratch& scratch = walk_scratch();
  auto& rev_offset = scratch.rev_offset;
  auto& rev_cursor = scratch.rev_cursor;
  auto& rev_edges = scratch.rev_edges;
  auto& queue = scratch.queue;
  rev_offset.assign(static_cast<std::size_t>(n) + 1, 0);
  queue.clear();
  for (const NextHop& hop : column->pool) {
    if (hop.neighbor != host && hop.neighbor < n) {
      ++rev_offset[static_cast<std::size_t>(hop.neighbor) + 1];
    }
  }
  for (int v = 0; v < n; ++v) {
    rev_offset[static_cast<std::size_t>(v) + 1] +=
        rev_offset[static_cast<std::size_t>(v)];
  }
  rev_edges.resize(static_cast<std::size_t>(
      rev_offset[static_cast<std::size_t>(n)]));
  rev_cursor.assign(rev_offset.begin(), rev_offset.end() - 1);
  for (int r = 0; r < n; ++r) {
    const std::uint32_t first = column->offset[static_cast<std::size_t>(r)];
    const std::uint32_t last =
        column->offset[static_cast<std::size_t>(r) + 1];
    for (std::uint32_t i = first; i < last; ++i) {
      const NextHop& hop = column->pool[i];
      if (hop.neighbor == host) {
        if (reach[static_cast<std::size_t>(r)] == 0) {
          reach[static_cast<std::size_t>(r)] = 1;
          queue.push_back(r);
        }
      } else if (hop.neighbor < n) {
        rev_edges[static_cast<std::size_t>(
            rev_cursor[static_cast<std::size_t>(hop.neighbor)]++)] = r;
      }
    }
  }
  while (!queue.empty()) {
    const std::int32_t v = queue.back();
    queue.pop_back();
    const std::int32_t first = rev_offset[static_cast<std::size_t>(v)];
    const std::int32_t last = rev_offset[static_cast<std::size_t>(v) + 1];
    for (std::int32_t i = first; i < last; ++i) {
      const std::int32_t r = rev_edges[static_cast<std::size_t>(i)];
      if (reach[static_cast<std::size_t>(r)] == 0) {
        reach[static_cast<std::size_t>(r)] = 1;
        queue.push_back(r);
      }
    }
  }
  return reach;
}

}  // namespace confmask
