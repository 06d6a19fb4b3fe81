// Control-plane simulation: the repository's stand-in for Batfish.
//
// Given a configuration set, the simulator converges OSPF (link-state, SPF
// with ECMP and per-interface costs), RIP (distance-vector, hop metric,
// classful `network` statements) and BGP (eBGP sessions between border
// routers, AS-level path-vector with shortest-AS-path preference, hot-potato
// egress selection via the intra-AS IGP), honoring `distribute-list` /
// `neighbor ... prefix-list in` route filters, and exposes:
//
//  * per-router FIBs keyed by destination host (the ⟨r̃, h̃_d, nxt⟩ entries
//    Algorithm 1 of the paper scans),
//  * host-to-host path enumeration, per destination as id-keyed flow
//    columns and in full as the name-keyed data plane (the traceroute the
//    strawman 2 baseline performs),
//  * per-router host reachability (the check Algorithm 2 performs before
//    keeping a random filter).
//
// Modeling notes (see DESIGN.md §5):
//  * OSPF filters act at RIB-install time: link-state distances are computed
//    over the full LSDB and filters only remove next-hop candidates — the
//    Cisco behaviour ConfMask relies on, and the reason Algorithm 1 needs
//    multiple iterations to converge.
//  * RIP filters act at advertisement-import time and therefore propagate
//    (a filtered router advertises the post-filter metric).
//  * BGP session filters remove the session from an AS's import candidates
//    for that prefix.
//
// The simulator keeps a global counter of constructed instances so that the
// Fig 16 runtime benchmark can also report "number of simulation jobs", the
// dominant cost the paper discusses in §5.4.
//
// Performance (DESIGN.md §8, §13): the hot path runs entirely over the
// FlatTopology CSR/SoA view — dense integer ids, interned interface slots,
// per-destination FIB columns packed into one contiguous arena each, and
// thread-local scratch (distance arrays, heap, per-router slot builders)
// reused across destinations. The embarrassingly parallel loops — per-
// destination FIB fill, per-destination data-plane walks — fan out over
// ThreadPool::shared() with disjoint writes (bit-identical results for any
// worker count), and the incremental constructor re-simulates only the
// destinations a SimulationDelta's filter edits can affect, aliasing the
// frozen topology, the IGP distance caches, and clean FIB columns from the
// previous simulation instead of copying them.
//
// IGP distances are never materialized as an R×R matrix (an O(R²) memory
// cliff at 10⁴ routers): hot-potato selection precomputes one distance row
// per BORDER router only, and `igp_distances()` answers one source's
// queried pairs with a Dijkstra that stops once its targets are settled,
// so pricing a few dozen fake links settles a fraction of the graph.
//
// Work that scales with the change (DESIGN.md §13): ConfMask-shaped prefix
// lists are answered by one (interface slot, prefix) hash lookup instead of
// an entry scan, RIP distances come from one BFS, the incremental
// constructor finds dirty destinations by hash, a dirty link-state column
// is patched at the routers whose filters changed instead of refilled, and
// a fresh build may carry OSPF distance vectors over from an earlier
// stage's simulation when two checks prove them still exact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/config/model.hpp"
#include "src/routing/dataplane.hpp"
#include "src/routing/flat_topology.hpp"
#include "src/routing/topology.hpp"

namespace confmask {

/// One FIB next hop of a router for some destination host.
struct NextHop {
  int link = -1;      ///< link id in the topology
  int neighbor = -1;  ///< node on the other side (router, or the host itself)

  friend auto operator<=>(const NextHop&, const NextHop&) = default;
};

/// A borrowed, contiguous view of one router's FIB entries for one
/// destination — what `Simulation::fib` returns now that FIB columns live
/// in per-destination arenas instead of one vector<vector> per (r, h)
/// slot. Valid as long as the owning Simulation (or a descendant that
/// aliases its columns) is alive.
class FibView {
 public:
  FibView() = default;
  FibView(const NextHop* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] const NextHop* begin() const { return data_; }
  [[nodiscard]] const NextHop* end() const { return data_ + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const NextHop& operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] const NextHop& front() const { return data_[0]; }

  friend bool operator==(const FibView& lhs, const FibView& rhs) {
    if (lhs.size_ != rhs.size_) return false;
    for (std::size_t i = 0; i < lhs.size_; ++i) {
      if (!(lhs.data_[i] == rhs.data_[i])) return false;
    }
    return true;
  }

 private:
  const NextHop* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The route-filter edits applied to a ConfigSet since a previous
/// Simulation was built over it — the dirty set driving incremental
/// re-simulation. Both additions and removals are recorded the same way:
/// what matters for invalidation is WHICH destination prefixes a change
/// can affect, not its direction.
struct SimulationDelta {
  struct FilterChange {
    int router = -1;     ///< topology node id of the filtering router
    Ipv4Prefix prefix;   ///< the denied destination prefix
  };
  std::vector<FilterChange> changes;

  void record(int router, const Ipv4Prefix& prefix) {
    changes.push_back(FilterChange{router, prefix});
  }
  [[nodiscard]] bool empty() const { return changes.empty(); }
  void clear() { changes.clear(); }
};

/// What a build adopted instead of computing. Destination counters cover
/// incremental rebuilds only (zero for a fresh build); a patched
/// destination is also a recomputed one (its column is new). Distance-
/// vector counters cover IGP-routed destinations that were (re)built: OSPF
/// distances are filter-independent (computed over the full LSDB), so an
/// incremental rebuild reuses them even for dirty destinations and a fresh
/// build with a donor carries them over where they provably still hold;
/// RIP distances embed filter effects and are always computed.
struct IncrementalStats {
  int destinations_reused = 0;
  int destinations_recomputed = 0;
  int destinations_patched = 0;  ///< recomputed by patching changed routers
  int distance_vectors_reused = 0;  ///< adopted: aliased, not computed
  int distance_vectors_recomputed = 0;
};

class Simulation {
 public:
  /// One destination's FIB entries for ALL routers, packed into a single
  /// arena: entries of router r live at pool[offset[r] .. offset[r+1]).
  /// Immutable once built; incremental descendants alias clean columns.
  struct FibColumn {
    std::vector<std::uint32_t> offset;  // router_count + 1
    std::vector<NextHop> pool;

    [[nodiscard]] FibView view(int router) const {
      const std::uint32_t first = offset[static_cast<std::size_t>(router)];
      return FibView{pool.data() + first,
                     offset[static_cast<std::size_t>(router) + 1] - first};
    }

    friend bool operator==(const FibColumn&, const FibColumn&) = default;
  };

  /// Builds the topology and converges all routing protocols. `configs`
  /// must outlive the simulation.
  ///
  /// `carry` (optional) is an earlier stage's simulation over a network
  /// this one only appended to (routers keep their ids). An OSPF
  /// destination adopts `carry`'s distance vector for the same gateway
  /// when (1) every OSPF half-edge of `carry` survives here at its cost and
  /// (2) no half-edge added since relaxes the vector; it is computed
  /// otherwise. Either way the result is bit-identical to a build without
  /// `carry`. `carry` need only live through the constructor.
  explicit Simulation(const ConfigSet& configs,
                      const Simulation* carry = nullptr);

  /// Incremental re-simulation. `previous` must have been built over the
  /// SAME frozen topology (identical routers, hosts, interfaces and
  /// links — only route filters may differ between the two config states)
  /// and `delta` must record every filter added or removed since
  /// `previous` was built. Destinations whose prefix overlaps no delta
  /// entry alias their FIB column and per-destination distances from
  /// `previous`; dirty OSPF destinations reuse distances (filters only
  /// gate next-hop installation) and dirty RIP destinations recompute
  /// them (filters shape distance-vector propagation). A dirty OSPF
  /// destination without a BGP part is patched: only a router with a
  /// change overlapping its prefix can change its slot, so every other
  /// router's slot is copied from `previous`'s column. The result is
  /// bit-identical to a fresh `Simulation(configs)`.
  Simulation(const ConfigSet& configs, const Simulation& previous,
             const SimulationDelta& delta);

  /// The configs this simulation reads. Throws std::logic_error on a
  /// column donor, which has none.
  [[nodiscard]] const ConfigSet& configs() const;
  [[nodiscard]] const Topology& topology() const { return *topology_; }
  /// Shared ownership of the frozen topology — hold this when the
  /// Simulation itself may be replaced (e.g. across re-simulation rounds)
  /// but node/link lookups must stay valid.
  [[nodiscard]] std::shared_ptr<const Topology> topology_ptr() const {
    return topology_;
  }
  /// The flat CSR/SoA view the hot path runs on (frozen with the
  /// topology, shared across incremental generations).
  [[nodiscard]] const FlatTopology& flat() const { return *flat_; }
  [[nodiscard]] std::shared_ptr<const FlatTopology> flat_ptr() const {
    return flat_;
  }

  /// What the incremental constructor reused vs recomputed (all zero for
  /// a fresh build).
  [[nodiscard]] const IncrementalStats& incremental_stats() const {
    return incremental_stats_;
  }

  /// Watch mode: re-points every FIB column equal to `donor`'s column for
  /// the same destination at donor's object (and its distance vector), so
  /// identity checks against `donor` (the verification gate's proof) see
  /// what value equality would. A no-op unless `donor` shares this
  /// simulation's topology object. Returns the number of columns shared.
  int share_equal_columns(const Simulation& donor);

  /// Watch mode: this simulation as a column donor — its topology, flat
  /// view, border rows, distance vectors and FIB columns, aliased, with no
  /// configs and no filter tables. That is all the incremental
  /// constructor, share_equal_columns and the verification gate's proof
  /// read of a previous simulation, so a donor may outlive the configs
  /// this simulation was built over. Reading a donor's configs or walking
  /// paths over it (node_paths, flow_column and their callers, which read
  /// filters and ACLs) throws std::logic_error.
  [[nodiscard]] std::shared_ptr<const Simulation> column_donor() const;

  /// The destinations (host node ids, ascending) this build computed: every
  /// host for a fresh build, the dirty ones for an incremental rebuild.
  /// Every other destination's FIB column is the previous generation's.
  [[nodiscard]] const std::vector<int>& recomputed_hosts() const {
    return recomputed_hosts_;
  }

  /// FIB entries of `router` for destination host `host` (both node ids).
  /// Empty means no route (black hole at that router). The view borrows
  /// from this simulation's column arenas — it stays valid while this
  /// Simulation (or an incremental descendant aliasing the column) lives.
  [[nodiscard]] FibView fib(int router, int host) const;

  /// Every FIB column, by host node id − router_count (null: no routes);
  /// ids only, so holders may outlive this simulation and its configs.
  [[nodiscard]] const std::vector<std::shared_ptr<const FibColumn>>&
  fib_columns() const {
    return fib_columns_;
  }

  /// All complete forwarding paths from `src_host` to `dst_host` as node-id
  /// sequences, lexicographically sorted. ECMP branches are enumerated.
  /// If `truncated` is non-null it is set to true when enumeration hit the
  /// per-flow path or depth cap, i.e. the returned set may be incomplete.
  [[nodiscard]] std::vector<std::vector<int>> node_paths(
      int src_host, int dst_host, bool* truncated = nullptr) const;

  /// Same, as device-name sequences.
  [[nodiscard]] std::vector<Path> paths(int src_host, int dst_host,
                                        bool* truncated = nullptr) const;

  /// One destination host's column of the data plane: the delivered paths
  /// from every source host, as node ids. Sources with the same path set
  /// share a group — every source behind one gateway when no packet ACL
  /// exists, each source alone otherwise. Immutable once built; ids only,
  /// so holders may outlive the simulation and its configs.
  struct FlowColumn {
    /// Per source host (index host − router_count): its group, or -1 when
    /// no path is delivered, the source was not walked, or it is the
    /// destination itself.
    std::vector<std::int32_t> group_of;
    /// Group g holds paths [group_first[g], group_first[g + 1]), sorted and
    /// duplicate-free. Path p is nodes[path_first[p], path_first[p + 1]),
    /// gateway … destination: the source host, first on every path of its
    /// flow, is left implicit.
    std::vector<std::uint32_t> group_first{0};
    std::vector<std::uint32_t> path_first{0};
    std::vector<int> nodes;
    std::uint32_t truncated = 0;  ///< walked flows that hit the caps
  };

  /// The column toward `dst_host`. `sources` (per host index, nonzero =
  /// walk) limits the walk; null walks every source. The one
  /// per-destination walker: the original index, the verification gate
  /// and extract_data_plane() all use it, and each source's paths are
  /// node_paths(source, dst_host) without the source.
  [[nodiscard]] FlowColumn flow_column(
      int dst_host, const std::vector<char>* sources = nullptr) const;

  /// The columns toward `dst_hosts` (all sources), walked over the pool.
  /// Flows that hit the caps are reported once per call.
  [[nodiscard]] std::vector<std::shared_ptr<const FlowColumn>> flow_columns(
      const std::vector<int>& dst_hosts) const;

  /// Full data plane over all ordered host pairs: every column, named.
  /// Flows whose enumeration hit the path/depth caps are logged once per
  /// extraction (capped coverage must never be mistaken for complete
  /// coverage).
  [[nodiscard]] DataPlane extract_data_plane() const;

  /// The name-keyed data plane of `columns`, one per host of `topology`
  /// by host index (null: nothing delivered). Each flow's paths are sorted
  /// by name, so this equals extract_data_plane() of the simulation that
  /// walked them.
  [[nodiscard]] static DataPlane named_data_plane(
      const Topology& topology,
      const std::vector<std::shared_ptr<const FlowColumn>>& columns);

  /// Logs, once, that `flows` flow walks hit the path or depth cap (a
  /// no-op for zero).
  static void report_truncated(std::size_t flows);

  /// The /N LAN prefix of a host node id (destination prefix of every flow
  /// toward it).
  [[nodiscard]] const Ipv4Prefix& host_prefix(int host) const;

  /// True if forwarding from `router` to `host` completes.
  [[nodiscard]] bool reaches(int router, int host) const;

  /// For every router r: whether forwarding from r to `host` completes,
  /// computed in ONE reverse sweep over the host's FIB column (O(R + E))
  /// instead of R independent `reaches` walks re-deriving the same
  /// prefixes. Matches `reaches` whenever the DFS caps do not bind (path
  /// existence in the FIB digraph equals simple-path existence).
  [[nodiscard]] std::vector<char> routers_reaching(int host) const;

  /// Converged IGP distances from router `from` to each of `targets`
  /// (router node ids; repeats and `from` itself allowed), negative where
  /// unreachable. This is the paper's min_cost(r, r') used to price fake
  /// OSPF links. One Dijkstra from `from` that stops once every target is
  /// settled; `settled`, when non-null, receives the nodes it settled.
  /// Keeps no state, so calls for different sources may run in parallel.
  [[nodiscard]] std::vector<long> igp_distances(
      int from, const std::vector<int>& targets,
      std::uint64_t* settled = nullptr) const;

  /// Number of Simulation instances constructed since process start; the
  /// paper's §5.4 complexity discussion counts exactly these jobs.
  ///
  /// Invariant: the counter is a pure statistic — nothing synchronizes on
  /// it and no other memory is published through it, so all accesses use
  /// relaxed atomics. Concurrent constructions (e.g. pipeline workers)
  /// each count exactly once; total_runs() observes some valid count but
  /// is only exact once construction activity has quiesced.
  /// reset_run_counter() is for sequential measurement code only — racing
  /// it against constructions loses increments by design.
  static std::uint64_t total_runs();
  static void reset_run_counter();

  /// Simulations constructed BY THE CALLING THREAD since it started. The
  /// pipeline constructs every Simulation of a run on its orchestration
  /// thread, so per-run deltas of this counter stay correct when several
  /// pipelines run concurrently (the job scheduler) — deltas of the global
  /// total_runs() would blend jobs together. Monotonic per thread; never
  /// reset.
  static std::uint64_t runs_on_this_thread();

 private:
  /// A destination's IGP distance vector, shared across generations.
  using Distances = std::shared_ptr<const std::vector<long>>;

  /// Open-addressing set of 64-bit keys in one flat array: no per-entry
  /// allocation, so rebuilding it on every construction stays cheap. Keys
  /// must differ from kEmpty.
  class KeySet {
   public:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    /// Empties the set, sized for about `expected` keys.
    void reset(std::size_t expected);
    void insert(std::uint64_t key);
    [[nodiscard]] bool contains(std::uint64_t key) const;

   private:
    [[nodiscard]] std::size_t home(std::uint64_t key) const;
    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
  };

  /// One `neighbor <peer> prefix-list ... in` binding: `count` lists
  /// starting at bgp_filter_pool_[first]. Sorted by peer_bits per router.
  struct BgpFilterEntry {
    std::uint32_t peer_bits = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  struct DonorTag {};
  Simulation(const Simulation& live, DonorTag);
  /// Throws std::logic_error on a column donor (`what` names the caller).
  void require_configs(const char* what) const;

  void index_filters();
  void compute_border_distances();
  /// Per router id: the OSPF distance vector of `donor` towards that
  /// gateway when it is exact on this simulation's graph too (see the
  /// carrying constructor), else null. Empty when no vector carries.
  [[nodiscard]] std::vector<Distances> carried_vectors(
      const Simulation& donor) const;
  /// Converges one destination host's FIB column. `reuse_dist` (exact for
  /// this destination's gateway on this topology: a previous generation's
  /// or a carried vector) is adopted verbatim for OSPF-routed destinations
  /// — link-state distances are filter-free — and ignored (recomputed)
  /// for RIP ones. Returns the action taken for the stats tally.
  enum class DestAction : signed char {
    kFresh,         ///< no distance vector applicable (static/BGP only)
    kDistReused,    ///< OSPF: distances adopted from `reuse_dist`
    kDistComputed,  ///< distances computed from scratch
    kPatched,       ///< OSPF: distances adopted, changed routers refilled
  };
  void count_vector(DestAction action);
  /// `reuse_dist` may be null; when adopted, the column's distance vector
  /// ALIASES it (no copy) — the shared_ptr keeps it alive across
  /// generations.
  DestAction compute_destination(int host, const Distances& reuse_dist);
  /// True when a BGP speaker outside the destination's AS routes to it
  /// (compute_bgp_destination fills something).
  [[nodiscard]] bool has_bgp_part(int host_index) const;
  /// The incremental constructor's column patch for an OSPF destination
  /// with no BGP part: the slots of `changed` (ascending router ids) are
  /// refilled over `dist`, every other slot is copied from `previous`.
  void patch_destination(int host, const Distances& dist,
                         const FibColumn& previous,
                         const std::vector<std::int32_t>& changed);
  /// Router r's equal-cost IGP next hops toward a destination with
  /// distance vector `dist`, each admitted by r's filters, appended to
  /// `slot` in column order.
  void append_igp_hops(int r, const long* dist, bool in_ospf,
                       const Ipv4Prefix& dest_prefix,
                       std::vector<NextHop>& slot) const;
  /// Router r's static-route override (longest match on the host address)
  /// of `slot`, which holds r's protocol route for the destination.
  void apply_static_route(int r, Ipv4Address host_address,
                          const Ipv4Prefix& dest_prefix,
                          std::vector<NextHop>& slot) const;
  /// BGP part of compute_destination: FIBs of routers outside the origin
  /// AS (AS-level path-vector + hot-potato egress selection). Appends into
  /// the caller's per-router slot builders.
  void compute_bgp_destination(int host, int gateway,
                               const Ipv4Prefix& dest_prefix,
                               std::vector<std::vector<NextHop>>& slots,
                               std::vector<std::int32_t>& touched) const;
  /// Route-filter check on an interned interface slot (-1 = no interface,
  /// never filtered): the deny index first, then an ordered scan of the
  /// slot's lists that are not ConfMask-shaped.
  [[nodiscard]] bool denied_igp(std::int32_t iface_slot,
                                const Ipv4Prefix& dest) const;
  /// Packet-filter check: true if the inbound ACL on interface slot
  /// `iface_slot` drops (src, dst) traffic. `src == nullptr` (control-
  /// plane reachability checks) skips ACL evaluation.
  [[nodiscard]] bool acl_blocks(std::int32_t iface_slot,
                                const Ipv4Prefix* src,
                                const Ipv4Prefix& dst) const;
  [[nodiscard]] bool denied_bgp(int router, std::uint32_t peer_bits,
                                const Ipv4Prefix& dest) const;
  /// DFS path enumeration over the FIB. `visited` is an O(1)-membership
  /// bitmap indexed by node id (sized node_count). `truncated` latches
  /// true when the path-count or depth cap cut enumeration short.
  bool walk(int router, int dst_host, const Ipv4Prefix* src_prefix,
            const Ipv4Prefix& dst_prefix, std::vector<char>& visited,
            std::vector<int>& current, std::vector<std::vector<int>>& out,
            int depth, bool& truncated) const;

  const ConfigSet* configs_;  // null on a column donor
  // Shared with incremental descendants: between filter-only config edits
  // the topology is frozen, so re-simulations alias one immutable build.
  std::shared_ptr<const Topology> topology_;
  std::shared_ptr<const FlatTopology> flat_;

  // Flat filter tables over interned interface slots, rebuilt per
  // constructor over the CURRENT configs (PrefixList/AccessList pointers
  // may dangle across config generations; slots never do). A ConfMask-
  // shaped list (exact-prefix denies, then a permit-all) denies exactly
  // its deny prefixes, which go into deny_index_ keyed by (slot, prefix);
  // every other list stays in the per-slot scan pool.
  KeySet deny_index_;
  std::vector<char> slot_has_denies_;            // per slot
  std::vector<std::int32_t> igp_filter_offset_;  // iface_slot_count + 1
  std::vector<const PrefixList*> igp_filter_pool_;
  std::vector<const AccessList*> acl_slot_;      // per slot, nullable
  bool acl_free_ = true;
  std::vector<std::vector<BgpFilterEntry>> bgp_filters_;  // per router
  std::vector<const PrefixList*> bgp_filter_pool_;

  // IGP distances TO each border router (to_border_[border_index][r]),
  // the only rows hot-potato selection needs. Computed eagerly iff eBGP
  // sessions exist; shared across incremental generations.
  std::shared_ptr<const std::vector<std::vector<long>>> to_border_;

  // Per destination host (index host - router_count): the converged OSPF
  // distance vector towards that host, kept so incremental rebuilds can
  // adopt it for dirty destinations and later stages can carry it. Null
  // when the destination is not OSPF-routed; aliased (not copied) by
  // clean inheritance and by carrying.
  std::vector<Distances> dest_dist_;
  // Per destination host: the packed FIB column (null = no routes
  // anywhere, e.g. gateway-less hosts). Clean columns alias the previous
  // generation's arenas.
  std::vector<std::shared_ptr<const FibColumn>> fib_columns_;
  std::vector<int> recomputed_hosts_;
  IncrementalStats incremental_stats_;
};

}  // namespace confmask
