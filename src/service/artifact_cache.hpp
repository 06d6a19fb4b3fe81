// Content-addressed, on-disk artifact cache for anonymization jobs.
//
// Layout (all paths under the root passed to the constructor):
//
//   entries/<hex16>/meta.json          flat JSON: format, key, secondary,
//                                      build stamp of the producing binary
//   entries/<hex16>/anonymized.cfgset  canonical anonymized config bundle
//   entries/<hex16>/original.cfgset    canonical SUBMITTED bundle — the
//                                      server-side diff base for watch-mode
//                                      resubmits (lookup_original)
//   entries/<hex16>/diagnostics.json   diagnostics_to_json payload
//   entries/<hex16>/metrics.json       confmask.metrics/1 summary (no
//                                      timings — cached bytes must be
//                                      deterministic)
//   staging/<hex16>.<nonce>/           in-progress writes, never readable
//
// A publish writes exactly these five files. Entries written by older
// builds also hold a sixth, a per-device digest table that nothing read;
// it is ignored, and removed with its entry.
//
// Format version 3 (cache-key/3): meta.json additionally records the
// TENANT the entry was published under. The tenant is already folded into
// the key digest (cache_key.hpp), so recording it is not what isolates
// namespaces — it is what lets the cache account bytes per tenant for
// share-aware eviction, scope lookup_original to the requesting tenant,
// and tell a peer-fetch caller whose entry it is streaming. Version-1/2
// entries fail the structural check and are purged by the opening scrub —
// invalidated by design (a v2 entry recorded no tenant and could only
// alias a pre-fleet key anyway).
//
// Byte shares: set_tenant_shares() installs per-tenant byte ceilings (from
// the --tenants table). When a publish pushes its tenant over the tenant's
// own share, that tenant's least-recently-used entries are evicted FIRST —
// a tenant filling its share reclaims from itself, never from neighbors.
// Only after per-tenant enforcement does the global --cache-budget LRU
// run, and it too prefers victims belonging to over-share tenants.
//
// Publishing is atomic AND durable: an entry is fully written into
// staging/ (every file fsync'd — io_shim), renamed into entries/, and the
// entries/ directory is fsync'd so the rename survives power loss. Readers
// either see a complete entry or none — a crash or cancelled job can
// leave staging/ litter (swept on the next open) but never a partial
// entry under entries/. A store that cannot complete (ENOSPC, torn write,
// fsync failure) reports StoreResult::kIoError so the CALLER's job fails;
// the cache itself stays consistent and the daemon keeps serving.
//
// Budgeted: `max_bytes > 0` arms LRU eviction — after each publish, the
// least-recently-USED entries (lookup hits refresh recency; opening the
// cache seeds recency from file mtimes) are removed until the total is
// back under budget. The entry just published is never the victim, so a
// single oversized artifact degrades to "cache of one" instead of a
// publish/evict livelock. Evicted entries are not errors: the next
// identical job re-runs the pipeline and re-publishes byte-identical
// artifacts (content addressing makes eviction invisible except in cost).
//
// Invalidation happens at lookup, in place:
//  * secondary-digest mismatch  → a primary-hash collision (or corrupted
//    metadata); the entry is purged and the lookup is a miss;
//  * build-stamp mismatch       → the entry was produced by a different
//    binary; purged, miss (stale-binary invalidation — see build_info.hpp
//    for why the stamp tracks versions, not build timestamps);
//  * unreadable/garbled files   → purged, miss.
// The same structural checks run as a scrub pass when the cache opens, so
// entries torn by a crash are purged eagerly, not on first touch.
// Failed pipelines are never stored: a cache hit always means "verified,
// fail-closed-approved artifacts".
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/service/cache_key.hpp"

namespace confmask {

/// The byte-exact artifacts of one successful anonymization job.
struct CacheArtifacts {
  std::string anonymized_configs;  ///< canonical_config_set_text() bundle
  std::string original_configs;    ///< canonical SUBMITTED bundle (diff base)
  std::string diagnostics_json;    ///< diagnostics_to_json() payload
  std::string metrics_json;        ///< PipelineTrace metrics_json(false)
};

/// A complete entry as served to a peer daemon (lookup_by_hex): the full
/// key (secondary included, so the fetcher can store under the exact same
/// address), the owning tenant, and every artifact byte.
struct CachedEntry {
  CacheKey key;
  std::string tenant;
  CacheArtifacts artifacts;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  /// Entries purged at lookup or by the opening scrub (stale stamp,
  /// digest mismatch, corruption).
  std::uint64_t invalidations = 0;
  /// Entries removed by the LRU budget enforcer.
  std::uint64_t evictions = 0;
  std::uint64_t evicted_bytes = 0;
  /// Publishes that failed on I/O (ENOSPC, torn write, fsync failure).
  std::uint64_t io_errors = 0;
};

/// What happened to a store() call.
enum class StoreResult {
  kPublished,       ///< entry durably on disk and indexed
  kAlreadyPresent,  ///< identical entry existed (concurrent twin job won)
  kIoError,         ///< could not publish; cache unchanged, job must fail
};

/// Thread-safe: one internal mutex guards the index and the counters. A
/// publish writes and fsyncs its files outside it (see store()).
class ArtifactCache {
 public:
  /// Opens (creating if needed) a cache rooted at `root`. `stamp` defaults
  /// to this binary's build_stamp(); tests override it to exercise
  /// stale-binary invalidation. `max_bytes` arms the LRU budget (0 =
  /// unbounded). Sweeps leftover staging litter and scrubs structurally
  /// broken entries.
  explicit ArtifactCache(std::filesystem::path root, std::string stamp = "",
                         std::uint64_t max_bytes = 0);

  /// Returns the artifacts for `key` iff a complete, same-stamp,
  /// secondary-verified entry exists (refreshing its LRU recency). Purges
  /// and misses otherwise.
  [[nodiscard]] std::optional<CacheArtifacts> lookup(const CacheKey& key);

  /// Resolves a resubmit's base-artifact reference: the ORIGINAL bundle
  /// (the diff base) of the entry named by `key_hex` (the 16-hex
  /// primary digest a client received as `cache_key`). Clients do not hold
  /// the secondary digest, so unlike lookup() this validates format, key
  /// and stamp only — an accidental primary collision (~2⁻⁶⁴ against the
  /// stored secondary the full-key path would catch) at worst makes the
  /// resubmit's reconstructed bundle key elsewhere and run cold. The entry
  /// must belong to `tenant`: a base reference naming another namespace's
  /// entry is a miss, never a disclosure. Refreshes LRU recency on hit;
  /// purges structurally broken entries.
  [[nodiscard]] std::optional<std::string> lookup_original(
      const std::string& key_hex, const std::string& tenant = "default");

  /// True iff `key_hex` names an indexed entry published under `tenant`:
  /// lookup_original's scoping, answered from the in-memory index (no
  /// file read, no hit or miss counted). Refreshes LRU recency on success,
  /// as a lookup_original hit does. For callers that hold the original
  /// bundle already (a resident watch context).
  [[nodiscard]] bool touch_entry(const std::string& key_hex,
                                 const std::string& tenant);

  /// The full entry named by `key_hex`, for serving a peer-fetch. Same
  /// validation as lookup_original (format, key, stamp) plus the stored
  /// secondary digest parsed back into the returned key. Does NOT filter
  /// by tenant — the requesting daemon supplies only the hex address, and
  /// tenant isolation is already structural (the tenant is folded into the
  /// digest, so a tenant can only ever learn hexes of its own keys). Does
  /// not purge or count misses for absent entries (a peer probing a key we
  /// never owned is normal fleet traffic, not cache pressure).
  [[nodiscard]] std::optional<CachedEntry> lookup_by_hex(
      const std::string& key_hex);

  /// Durably publishes the entry (see header comment) under `tenant`, then
  /// enforces the tenant's byte share and the global budget. On kIoError,
  /// *error (when provided) names the failing step. The lock is held only
  /// for the existence check and staging name, then for the rename, the
  /// directory fsync and the index: the files are written and fsync'd
  /// without it, under a staging name no other store uses.
  StoreResult store(const CacheKey& key, const CacheArtifacts& artifacts,
                    std::string* error = nullptr,
                    const std::string& tenant = "default");

  /// Installs per-tenant byte ceilings (tenants absent from the map are
  /// bounded only by the global budget). Called at daemon start and on
  /// SIGHUP reload; takes effect from the next publish.
  void set_tenant_shares(std::map<std::string, std::uint64_t> shares);

  /// Indexed bytes currently attributed to `tenant`.
  [[nodiscard]] std::uint64_t tenant_bytes(const std::string& tenant) const;

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const std::filesystem::path& root() const { return root_; }
  [[nodiscard]] const std::string& stamp() const { return stamp_; }
  [[nodiscard]] std::uint64_t max_bytes() const { return max_bytes_; }

  /// Total bytes of indexed entries (maintained incrementally).
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Number of complete entries on disk (directory scan; test/stats aid).
  [[nodiscard]] std::size_t entry_count() const;

 private:
  struct IndexEntry {
    std::uint64_t bytes = 0;
    std::uint64_t last_used = 0;  ///< recency sequence, larger = fresher
    std::string tenant;           ///< namespace from meta.json
  };

  [[nodiscard]] std::filesystem::path entry_dir(const CacheKey& key) const;
  void scrub_locked();
  void evict_over_budget_locked(const std::string& keep_hex,
                                const std::string& tenant);
  void evict_entry_locked(std::map<std::string, IndexEntry>::iterator victim);
  void drop_index_locked(const std::string& hex);
  [[nodiscard]] bool over_share_locked(const std::string& tenant) const;

  std::filesystem::path root_;
  std::string stamp_;
  std::uint64_t max_bytes_;
  mutable std::mutex mutex_;
  CacheStats stats_;
  std::uint64_t staging_nonce_ = 0;
  /// hex16 → size/recency/tenant of every complete entry. Authoritative
  /// for the budgets; rebuilt from disk at open.
  std::map<std::string, IndexEntry> index_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t use_counter_ = 0;
  /// tenant → indexed bytes, maintained alongside index_.
  std::map<std::string, std::uint64_t> tenant_bytes_;
  /// tenant → byte ceiling from the quota table (absent = unshared).
  std::map<std::string, std::uint64_t> tenant_shares_;
};

}  // namespace confmask
