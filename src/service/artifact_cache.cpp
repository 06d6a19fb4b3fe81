#include "src/service/artifact_cache.hpp"

#include <algorithm>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "src/service/json_line.hpp"
#include "src/util/build_info.hpp"
#include "src/util/hash.hpp"
#include "src/util/io_shim.hpp"

namespace confmask {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMetaFormat = "confmask.cache-entry/3";
constexpr const char* kMetaFile = "meta.json";
constexpr const char* kConfigsFile = "anonymized.cfgset";
constexpr const char* kOriginalFile = "original.cfgset";
constexpr const char* kDiagnosticsFile = "diagnostics.json";
constexpr const char* kMetricsFile = "metrics.json";

/// The five files every complete entry holds. v1/v2 entries carry an old
/// format string (and v2 records no tenant), so they fail the structural
/// check and are purged by the opening scrub — invalidated by design. Any
/// other file in an entry (older builds' device table) is ignored, and
/// goes with the entry when it is removed.
constexpr const char* kEntryFiles[] = {kMetaFile, kConfigsFile,
                                       kOriginalFile, kDiagnosticsFile,
                                       kMetricsFile};

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const char* name : kEntryFiles) {
    const auto size = fs::file_size(dir / name, ec);
    if (!ec) total += size;
  }
  return total;
}

/// Reads and parses an entry's meta.json (trailing newline tolerated).
std::optional<JsonObject> read_meta_object(const fs::path& dir) {
  const auto meta_text = io::read_file(dir / kMetaFile);
  if (!meta_text) return std::nullopt;
  std::string_view meta_line = *meta_text;
  while (!meta_line.empty() &&
         (meta_line.back() == '\n' || meta_line.back() == '\r')) {
    meta_line.remove_suffix(1);
  }
  return parse_json_line(meta_line);
}

/// Structural validity: all entry files present and the metadata parses,
/// has the right format, names the directory it lives in, and records a
/// tenant. Stamp and secondary digest are NOT checked here — those are
/// lookup-time policy (a different-stamp entry is valid on disk, just not
/// servable by THIS binary... until lookup purges it). On success,
/// *tenant_out (when non-null) receives the recorded tenant.
bool entry_structurally_ok(const fs::path& dir, const std::string& hex,
                           std::string* tenant_out = nullptr) {
  std::error_code ec;
  for (const char* name : kEntryFiles) {
    if (!fs::is_regular_file(dir / name, ec)) return false;
  }
  const auto meta = read_meta_object(dir);
  if (!meta || get_string(*meta, "format") != std::string(kMetaFormat)) {
    return false;
  }
  if (get_string(*meta, "key") != hex) return false;
  const auto tenant = get_string(*meta, "tenant");
  if (!tenant || tenant->empty()) return false;
  if (tenant_out != nullptr) *tenant_out = *tenant;
  return true;
}

}  // namespace

ArtifactCache::ArtifactCache(fs::path root, std::string stamp,
                             std::uint64_t max_bytes)
    : root_(std::move(root)),
      stamp_(stamp.empty() ? build_stamp() : std::move(stamp)),
      max_bytes_(max_bytes) {
  fs::create_directories(root_ / "entries");
  // Anything under staging/ is a write that never published (crash or
  // cancel); it is invisible to lookups and safe to drop wholesale.
  std::error_code ec;
  fs::remove_all(root_ / "staging", ec);
  fs::create_directories(root_ / "staging");
  const std::lock_guard<std::mutex> lock(mutex_);
  scrub_locked();
}

void ArtifactCache::scrub_locked() {
  // Build the index from disk, purging structurally broken entries. A
  // broken entry under entries/ "should" be impossible (publish is
  // staged+renamed) — but disks lie, operators copy trees around, and the
  // whole point of the scrub is that lookups never have to trust that.
  struct Found {
    std::string hex;
    std::string tenant;
    std::uint64_t bytes;
    fs::file_time_type mtime;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (fs::directory_iterator it(root_ / "entries", ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_directory(ec)) continue;
    const std::string hex = it->path().filename().string();
    std::string tenant;
    if (!entry_structurally_ok(it->path(), hex, &tenant)) {
      std::error_code purge_ec;
      fs::remove_all(it->path(), purge_ec);
      ++stats_.invalidations;
      continue;
    }
    Found entry;
    entry.hex = hex;
    entry.tenant = std::move(tenant);
    entry.bytes = dir_bytes(it->path());
    entry.mtime = fs::last_write_time(it->path(), ec);
    found.push_back(std::move(entry));
  }
  // Seed LRU recency from publish mtimes: oldest entries evict first
  // until real lookups refine the order. Entries published within one
  // filesystem-timestamp granule tie on mtime; without the key tie-break
  // their relative recency — and therefore the post-restart eviction
  // order — would depend on directory enumeration order.
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.hex < b.hex;
  });
  for (Found& entry : found) {
    IndexEntry indexed;
    indexed.bytes = entry.bytes;
    indexed.last_used = ++use_counter_;
    indexed.tenant = std::move(entry.tenant);
    total_bytes_ += entry.bytes;
    tenant_bytes_[indexed.tenant] += entry.bytes;
    index_.emplace(std::move(entry.hex), indexed);
  }
}

void ArtifactCache::drop_index_locked(const std::string& hex) {
  const auto it = index_.find(hex);
  if (it == index_.end()) return;
  total_bytes_ -= std::min(total_bytes_, it->second.bytes);
  if (auto tb = tenant_bytes_.find(it->second.tenant);
      tb != tenant_bytes_.end()) {
    tb->second -= std::min(tb->second, it->second.bytes);
    if (tb->second == 0) tenant_bytes_.erase(tb);
  }
  index_.erase(it);
}

bool ArtifactCache::over_share_locked(const std::string& tenant) const {
  const auto share = tenant_shares_.find(tenant);
  if (share == tenant_shares_.end() || share->second == 0) return false;
  const auto used = tenant_bytes_.find(tenant);
  return used != tenant_bytes_.end() && used->second > share->second;
}

void ArtifactCache::evict_entry_locked(
    std::map<std::string, IndexEntry>::iterator victim) {
  std::error_code ec;
  fs::remove_all(root_ / "entries" / victim->first, ec);
  ++stats_.evictions;
  stats_.evicted_bytes += victim->second.bytes;
  total_bytes_ -= std::min(total_bytes_, victim->second.bytes);
  if (auto tb = tenant_bytes_.find(victim->second.tenant);
      tb != tenant_bytes_.end()) {
    tb->second -= std::min(tb->second, victim->second.bytes);
    if (tb->second == 0) tenant_bytes_.erase(tb);
  }
  index_.erase(victim);
}

void ArtifactCache::evict_over_budget_locked(const std::string& keep_hex,
                                             const std::string& tenant) {
  // Linear scans throughout: the cache holds at most a few thousand
  // entries and eviction runs once per publish — a heap would be
  // complexity without a measurable win.
  //
  // Phase 1 — the publishing tenant's own share. A tenant that fills its
  // allotment reclaims from its OWN least-recently-used entries; other
  // tenants' bytes are untouchable in this phase, which is what makes a
  // share a floor for everyone else rather than a mere accounting line.
  while (over_share_locked(tenant)) {
    auto victim = index_.end();
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it->first == keep_hex || it->second.tenant != tenant) continue;
      if (victim == index_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == index_.end()) break;  // only the protected entry left
    evict_entry_locked(victim);
  }

  // Phase 2 — the global budget. Victims from tenants still over their
  // share go first (e.g. after a SIGHUP shrank a share); otherwise plain
  // global LRU.
  if (max_bytes_ == 0) return;
  while (total_bytes_ > max_bytes_) {
    auto victim = index_.end();
    bool victim_over_share = false;
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it->first == keep_hex) continue;
      const bool over = over_share_locked(it->second.tenant);
      if (victim == index_.end() || (over && !victim_over_share) ||
          (over == victim_over_share &&
           it->second.last_used < victim->second.last_used)) {
        victim = it;
        victim_over_share = over;
      }
    }
    if (victim == index_.end()) return;  // only the protected entry left
    evict_entry_locked(victim);
  }
}

fs::path ArtifactCache::entry_dir(const CacheKey& key) const {
  return root_ / "entries" / key.hex();
}

std::optional<CacheArtifacts> ArtifactCache::lookup(const CacheKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const fs::path dir = entry_dir(key);
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    ++stats_.misses;
    return std::nullopt;
  }
  const auto purge = [&] {
    fs::remove_all(dir, ec);
    drop_index_locked(key.hex());
    ++stats_.invalidations;
    ++stats_.misses;
  };

  const auto meta = read_meta_object(dir);
  if (!meta || get_string(*meta, "format") != std::string(kMetaFormat)) {
    purge();
    return std::nullopt;
  }
  const auto secondary_hex = get_string(*meta, "secondary");
  const auto parsed_secondary =
      secondary_hex ? parse_hex64(*secondary_hex) : std::nullopt;
  if (get_string(*meta, "key") != key.hex() || !parsed_secondary ||
      *parsed_secondary != key.secondary) {
    purge();  // primary-hash collision or corrupted metadata
    return std::nullopt;
  }
  if (get_string(*meta, "stamp") != stamp_) {
    purge();  // produced by a different binary: stale-binary invalidation
    return std::nullopt;
  }

  CacheArtifacts artifacts;
  const auto configs = io::read_file(dir / kConfigsFile);
  const auto original = io::read_file(dir / kOriginalFile);
  const auto diagnostics = io::read_file(dir / kDiagnosticsFile);
  const auto metrics = io::read_file(dir / kMetricsFile);
  if (!configs || !original || !diagnostics || !metrics) {
    purge();
    return std::nullopt;
  }
  artifacts.anonymized_configs = std::move(*configs);
  artifacts.original_configs = std::move(*original);
  artifacts.diagnostics_json = std::move(*diagnostics);
  artifacts.metrics_json = std::move(*metrics);
  ++stats_.hits;
  if (auto it = index_.find(key.hex()); it != index_.end()) {
    it->second.last_used = ++use_counter_;  // refresh LRU recency
  }
  return artifacts;
}

bool ArtifactCache::touch_entry(const std::string& key_hex,
                                const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key_hex);
  if (it == index_.end() || it->second.tenant != tenant) return false;
  it->second.last_used = ++use_counter_;
  return true;
}

std::optional<std::string> ArtifactCache::lookup_original(
    const std::string& key_hex, const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const fs::path dir = root_ / "entries" / key_hex;
  std::error_code ec;
  if (parse_hex64(key_hex) == std::nullopt || !fs::is_directory(dir, ec)) {
    ++stats_.misses;
    return std::nullopt;
  }
  const auto purge = [&] {
    fs::remove_all(dir, ec);
    drop_index_locked(key_hex);
    ++stats_.invalidations;
    ++stats_.misses;
  };

  const auto meta = read_meta_object(dir);
  if (!meta || get_string(*meta, "format") != std::string(kMetaFormat) ||
      get_string(*meta, "key") != key_hex) {
    purge();
    return std::nullopt;
  }
  if (get_string(*meta, "stamp") != stamp_) {
    purge();  // stale-binary invalidation, same policy as lookup()
    return std::nullopt;
  }
  if (get_string(*meta, "tenant") != tenant) {
    // Another namespace's entry. The entry itself is fine — the REQUEST
    // is out of scope, so this is a plain miss, not an invalidation.
    ++stats_.misses;
    return std::nullopt;
  }

  auto original = io::read_file(dir / kOriginalFile);
  if (!original) {
    purge();
    return std::nullopt;
  }
  ++stats_.hits;
  if (auto it = index_.find(key_hex); it != index_.end()) {
    it->second.last_used = ++use_counter_;  // refresh LRU recency
  }
  return original;
}

std::optional<CachedEntry> ArtifactCache::lookup_by_hex(
    const std::string& key_hex) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const fs::path dir = root_ / "entries" / key_hex;
  std::error_code ec;
  const auto primary = parse_hex64(key_hex);
  if (!primary || !fs::is_directory(dir, ec)) return std::nullopt;

  const auto meta = read_meta_object(dir);
  if (!meta || get_string(*meta, "format") != std::string(kMetaFormat) ||
      get_string(*meta, "key") != key_hex ||
      get_string(*meta, "stamp") != stamp_) {
    return std::nullopt;
  }
  const auto tenant = get_string(*meta, "tenant");
  const auto secondary_hex = get_string(*meta, "secondary");
  const auto secondary =
      secondary_hex ? parse_hex64(*secondary_hex) : std::nullopt;
  if (!tenant || !secondary) return std::nullopt;

  const auto configs = io::read_file(dir / kConfigsFile);
  const auto original = io::read_file(dir / kOriginalFile);
  const auto diagnostics = io::read_file(dir / kDiagnosticsFile);
  const auto metrics = io::read_file(dir / kMetricsFile);
  if (!configs || !original || !diagnostics || !metrics) return std::nullopt;

  CachedEntry entry;
  entry.key.primary = *primary;
  entry.key.secondary = *secondary;
  entry.tenant = *tenant;
  entry.artifacts.anonymized_configs = std::move(*configs);
  entry.artifacts.original_configs = std::move(*original);
  entry.artifacts.diagnostics_json = std::move(*diagnostics);
  entry.artifacts.metrics_json = std::move(*metrics);
  ++stats_.hits;
  if (auto it = index_.find(key_hex); it != index_.end()) {
    it->second.last_used = ++use_counter_;  // a peer read is a real use
  }
  return entry;
}

StoreResult ArtifactCache::store(const CacheKey& key,
                                 const CacheArtifacts& artifacts,
                                 std::string* error,
                                 const std::string& tenant) {
  const fs::path dir = entry_dir(key);
  fs::path staging;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::error_code ec;
    if (fs::exists(dir, ec)) {
      return StoreResult::kAlreadyPresent;  // identical artifacts published
    }
    staging = root_ / "staging" /
              (key.hex() + "." + std::to_string(staging_nonce_++));
  }
  const auto fail = [&](std::string message) {
    // Disk trouble: publishing nothing beats publishing a fragment. The
    // staged litter is removed now and would be swept at next open anyway.
    std::error_code ec;
    fs::remove_all(staging, ec);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.io_errors;
    if (error != nullptr) *error = std::move(message);
    return StoreResult::kIoError;
  };

  std::error_code ec;
  fs::create_directories(staging, ec);
  if (ec) return fail("staging mkdir: " + ec.message());

  const std::string meta = JsonWriter{}
                               .string("format", kMetaFormat)
                               .string("key", key.hex())
                               .string("secondary", hex64(key.secondary))
                               .string("stamp", stamp_)
                               .string("tenant", tenant)
                               .str() +
                           "\n";

  // Every file fsync'd before the rename: after a crash the published
  // entry must hold its BYTES, not just its names.
  std::string write_error;
  const bool written =
      io::write_file_durable(staging / kMetaFile, meta, &write_error) &&
      io::write_file_durable(staging / kConfigsFile,
                             artifacts.anonymized_configs, &write_error) &&
      io::write_file_durable(staging / kOriginalFile,
                             artifacts.original_configs, &write_error) &&
      io::write_file_durable(staging / kDiagnosticsFile,
                             artifacts.diagnostics_json, &write_error) &&
      io::write_file_durable(staging / kMetricsFile, artifacts.metrics_json,
                             &write_error);
  if (!written) return fail(write_error);

  const std::lock_guard<std::mutex> lock(mutex_);
  fs::rename(staging, dir, ec);
  if (ec) {
    // Lost a race with an identical concurrent store, or the target became
    // unusable; either way the staging copy is redundant.
    fs::remove_all(staging, ec);
    std::error_code exists_ec;
    if (fs::exists(dir, exists_ec)) return StoreResult::kAlreadyPresent;
    ++stats_.io_errors;
    if (error != nullptr) *error = "publish rename failed";
    return StoreResult::kIoError;
  }
  // The rename itself is durable only once the parent directory is synced.
  std::string dir_error;
  if (!io::fsync_dir(root_ / "entries", &dir_error)) {
    // The entry is complete and servable; only its crash-durability is in
    // doubt. Report the publish as succeeded but count the I/O hiccup.
    ++stats_.io_errors;
  }
  ++stats_.stores;

  IndexEntry indexed;
  indexed.bytes = meta.size() + artifacts.anonymized_configs.size() +
                  artifacts.original_configs.size() +
                  artifacts.diagnostics_json.size() +
                  artifacts.metrics_json.size();
  indexed.last_used = ++use_counter_;
  indexed.tenant = tenant;
  total_bytes_ += indexed.bytes;
  tenant_bytes_[tenant] += indexed.bytes;
  index_[key.hex()] = indexed;
  evict_over_budget_locked(key.hex(), tenant);
  return StoreResult::kPublished;
}

void ArtifactCache::set_tenant_shares(
    std::map<std::string, std::uint64_t> shares) {
  const std::lock_guard<std::mutex> lock(mutex_);
  tenant_shares_ = std::move(shares);
}

std::uint64_t ArtifactCache::tenant_bytes(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenant_bytes_.find(tenant);
  return it == tenant_bytes_.end() ? 0 : it->second;
}

CacheStats ArtifactCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t ArtifactCache::total_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

std::size_t ArtifactCache::entry_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  std::size_t count = 0;
  for (fs::directory_iterator it(root_ / "entries", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_directory(ec)) ++count;
  }
  return count;
}

}  // namespace confmask
