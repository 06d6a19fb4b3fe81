// Content-addressed artifact cache: key canonicalization and coverage,
// store/hit byte-identity, stale-binary and collision invalidation, and
// the atomic-publish guarantee (no partial entries, ever).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/cache_key.hpp"
#include "src/util/hash.hpp"

#if defined(CONFMASK_FAULT_INJECTION)
#include "fault_injection.hpp"
#include "src/util/io_shim.hpp"
#endif

namespace confmask {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("confmask_" + name);
  fs::remove_all(dir);
  return dir;
}

CacheArtifacts sample_artifacts() {
  CacheArtifacts artifacts;
  artifacts.anonymized_configs = "!>> device r0\nhostname r0\n";
  artifacts.diagnostics_json = "{\n  \"ok\": true\n}\n";
  artifacts.metrics_json = "{\"schema\": \"confmask.metrics/1\"}\n";
  return artifacts;
}

TEST(CacheKey, DeterministicAndSensitiveToEveryParameter) {
  const ConfigSet network = make_figure2();
  const ConfMaskOptions base;
  const RetryPolicy policy;
  const auto key = compute_cache_key(network, base, policy,
                                     EquivalenceStrategy::kConfMask);
  EXPECT_EQ(key, compute_cache_key(network, base, policy,
                                   EquivalenceStrategy::kConfMask));
  EXPECT_EQ(key.hex().size(), 16u);
  EXPECT_EQ(key.hex(), hex64(key.primary));

  // Every parameter that can change output bytes must change the key.
  ConfMaskOptions changed = base;
  changed.seed = base.seed + 1;
  EXPECT_NE(key, compute_cache_key(network, changed, policy,
                                   EquivalenceStrategy::kConfMask));
  changed = base;
  changed.k_r = base.k_r + 1;
  EXPECT_NE(key, compute_cache_key(network, changed, policy,
                                   EquivalenceStrategy::kConfMask));
  changed = base;
  changed.noise_p = base.noise_p + 0.05;
  EXPECT_NE(key, compute_cache_key(network, changed, policy,
                                   EquivalenceStrategy::kConfMask));
  RetryPolicy relaxed = policy;
  relaxed.max_reseeds = policy.max_reseeds + 1;
  EXPECT_NE(key, compute_cache_key(network, base, relaxed,
                                   EquivalenceStrategy::kConfMask));
  EXPECT_NE(key, compute_cache_key(network, base, policy,
                                   EquivalenceStrategy::kStrawman1));
}

TEST(CacheKey, DeviceOrderCanonicalized) {
  ConfigSet forward = make_figure2();
  ConfigSet reversed = forward;
  std::reverse(reversed.routers.begin(), reversed.routers.end());
  std::reverse(reversed.hosts.begin(), reversed.hosts.end());
  const ConfMaskOptions options;
  const RetryPolicy policy;
  EXPECT_EQ(compute_cache_key(forward, options, policy,
                              EquivalenceStrategy::kConfMask),
            compute_cache_key(reversed, options, policy,
                              EquivalenceStrategy::kConfMask));
}

TEST(CacheKey, NetworkContentChangesKey) {
  ConfigSet network = make_figure2();
  const ConfMaskOptions options;
  const RetryPolicy policy;
  const auto key = compute_cache_key(network, options, policy,
                                     EquivalenceStrategy::kConfMask);
  network.routers[0].extra_lines.push_back("description changed");
  EXPECT_NE(key, compute_cache_key(network, options, policy,
                                   EquivalenceStrategy::kConfMask));
}

TEST(ArtifactCache, StoreThenLookupReturnsByteIdenticalArtifacts) {
  ArtifactCache cache(fresh_dir("store_hit"), "stamp-a");
  CacheKey key{0x1234, 0x5678};
  EXPECT_FALSE(cache.lookup(key).has_value());
  const CacheArtifacts artifacts = sample_artifacts();
  cache.store(key, artifacts);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->anonymized_configs, artifacts.anonymized_configs);
  EXPECT_EQ(hit->diagnostics_json, artifacts.diagnostics_json);
  EXPECT_EQ(hit->metrics_json, artifacts.metrics_json);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ArtifactCache, EntriesSurviveReopenWithSameStamp) {
  const fs::path root = fresh_dir("reopen");
  const CacheKey key{42, 43};
  {
    ArtifactCache cache(root, "stamp-a");
    cache.store(key, sample_artifacts());
  }
  ArtifactCache cache(root, "stamp-a");
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(ArtifactCache, StaleBinaryStampInvalidatesInPlace) {
  const fs::path root = fresh_dir("stamp");
  const CacheKey key{7, 8};
  {
    ArtifactCache old_binary(root, "stamp-old");
    old_binary.store(key, sample_artifacts());
  }
  ArtifactCache new_binary(root, "stamp-new");
  EXPECT_FALSE(new_binary.lookup(key).has_value());
  EXPECT_EQ(new_binary.stats().invalidations, 1u);
  EXPECT_EQ(new_binary.entry_count(), 0u);  // purged, not left to rot
  // The slot is reusable by the new binary.
  new_binary.store(key, sample_artifacts());
  EXPECT_TRUE(new_binary.lookup(key).has_value());
}

TEST(ArtifactCache, SecondaryDigestMismatchPurges) {
  const fs::path root = fresh_dir("collision");
  ArtifactCache cache(root, "stamp-a");
  const CacheKey stored{100, 200};
  cache.store(stored, sample_artifacts());
  // Same primary digest, different secondary: a primary-hash collision.
  const CacheKey colliding{100, 999};
  EXPECT_FALSE(cache.lookup(colliding).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ArtifactCache, CorruptMetadataPurges) {
  const fs::path root = fresh_dir("corrupt");
  const CacheKey key{1, 2};
  ArtifactCache cache(root, "stamp-a");
  cache.store(key, sample_artifacts());
  std::ofstream(root / "entries" / key.hex() / "meta.json")
      << "not json at all\n";
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ArtifactCache, StagingLitterIsSweptAndNeverVisible) {
  const fs::path root = fresh_dir("staging");
  {
    ArtifactCache cache(root, "stamp-a");
    // Simulate a crash mid-write: a staging dir with real content that
    // never published.
    fs::create_directories(root / "staging" / "deadbeef.0");
    std::ofstream(root / "staging" / "deadbeef.0" / "meta.json") << "{}";
  }
  ArtifactCache reopened(root, "stamp-a");
  EXPECT_FALSE(fs::exists(root / "staging" / "deadbeef.0"));
  EXPECT_EQ(reopened.entry_count(), 0u);  // litter never became an entry
}

TEST(ArtifactCache, PublishedEntriesAreAlwaysComplete) {
  const fs::path root = fresh_dir("complete");
  ArtifactCache cache(root, "stamp-a");
  for (std::uint64_t i = 0; i < 5; ++i) {
    cache.store(CacheKey{i, i + 1}, sample_artifacts());
  }
  // Every directory under entries/ holds exactly the five files — the
  // atomic rename-publish invariant, and nothing beside them.
  const std::set<std::string> expected = {
      "meta.json", "anonymized.cfgset", "original.cfgset",
      "diagnostics.json", "metrics.json"};
  for (const auto& entry : fs::directory_iterator(root / "entries")) {
    std::set<std::string> files;
    for (const auto& file : fs::directory_iterator(entry.path())) {
      files.insert(file.path().filename().string());
    }
    EXPECT_EQ(files, expected) << entry.path();
  }
  EXPECT_EQ(cache.entry_count(), 5u);
}

TEST(ArtifactCache, DuplicateStoreKeepsFirstEntry) {
  ArtifactCache cache(fresh_dir("dup"), "stamp-a");
  const CacheKey key{9, 10};
  cache.store(key, sample_artifacts());
  CacheArtifacts other = sample_artifacts();
  other.metrics_json = "{\"different\": true}\n";
  cache.store(key, other);  // lost race with an identical job: no-op
  EXPECT_EQ(cache.stats().stores, 1u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->metrics_json, sample_artifacts().metrics_json);
}

TEST(ArtifactCache, LruEvictionKeepsBytesUnderBudget) {
  // Measure one entry's on-disk footprint, then budget for two and a half.
  std::uint64_t entry_bytes = 0;
  {
    ArtifactCache probe(fresh_dir("lru_probe"), "stamp-a");
    probe.store(CacheKey{1, 1}, sample_artifacts());
    entry_bytes = probe.total_bytes();
  }
  ASSERT_GT(entry_bytes, 0u);

  ArtifactCache cache(fresh_dir("lru"), "stamp-a",
                      entry_bytes * 2 + entry_bytes / 2);
  cache.store(CacheKey{1, 1}, sample_artifacts());
  cache.store(CacheKey{2, 2}, sample_artifacts());
  // Touch entry 1: entry 2 becomes the least recently used.
  ASSERT_TRUE(cache.lookup(CacheKey{1, 1}).has_value());
  cache.store(CacheKey{3, 3}, sample_artifacts());

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_GT(cache.stats().evicted_bytes, 0u);
  EXPECT_LE(cache.total_bytes(), cache.max_bytes());
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_FALSE(cache.lookup(CacheKey{2, 2}).has_value());  // the LRU victim
  EXPECT_TRUE(cache.lookup(CacheKey{1, 1}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{3, 3}).has_value());

  // Eviction is invisible except in cost: the evicted key re-publishes
  // cleanly when its job is recomputed.
  EXPECT_EQ(cache.store(CacheKey{2, 2}, sample_artifacts()),
            StoreResult::kPublished);
  EXPECT_TRUE(cache.lookup(CacheKey{2, 2}).has_value());
  EXPECT_LE(cache.total_bytes(), cache.max_bytes());
}

TEST(ArtifactCache, BudgetSmallerThanOneEntryDegradesToCacheOfOne) {
  // The just-published entry is never its own eviction victim, so an
  // absurdly small budget degrades to "cache of one" instead of livelock.
  ArtifactCache cache(fresh_dir("tiny_budget"), "stamp-a", 1);
  EXPECT_EQ(cache.store(CacheKey{1, 1}, sample_artifacts()),
            StoreResult::kPublished);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.store(CacheKey{2, 2}, sample_artifacts()),
            StoreResult::kPublished);
  EXPECT_EQ(cache.entry_count(), 1u);  // first entry evicted, second kept
  EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{2, 2}).has_value());
}

TEST(ArtifactCache, ScrubAtOpenPurgesStructurallyBrokenEntries) {
  const fs::path root = fresh_dir("scrub");
  const CacheKey broken{1, 2};
  const CacheKey intact{3, 4};
  {
    ArtifactCache cache(root, "stamp-a");
    cache.store(broken, sample_artifacts());
    cache.store(intact, sample_artifacts());
  }
  // Bit rot / operator mishap: one artifact file vanishes from a
  // published entry. The open-time integrity scrub must purge the whole
  // entry rather than let a lookup half-succeed later.
  fs::remove(root / "entries" / broken.hex() / "metrics.json");
  ArtifactCache reopened(root, "stamp-a");
  EXPECT_EQ(reopened.stats().invalidations, 1u);
  EXPECT_EQ(reopened.entry_count(), 1u);
  EXPECT_FALSE(reopened.lookup(broken).has_value());
  EXPECT_TRUE(reopened.lookup(intact).has_value());
}

#if defined(CONFMASK_FAULT_INJECTION)

TEST(ArtifactCache, InjectedDiskFaultsFailTheStoreNotTheCache) {
  ArtifactCache cache(fresh_dir("store_faults"), "stamp-a");
  const CacheKey key{50, 51};
  std::string error;
  {
    const ScopedFault fault(io::kFaultEnospc, 1);
    EXPECT_EQ(cache.store(key, sample_artifacts(), &error),
              StoreResult::kIoError);
  }
  EXPECT_FALSE(error.empty());
  {
    // A torn write: some bytes land, the rest hit ENOSPC.
    const ScopedFault fault(io::kFaultShortWrite, 1);
    EXPECT_EQ(cache.store(key, sample_artifacts(), &error),
              StoreResult::kIoError);
  }
  {
    const ScopedFault fault(io::kFaultFsyncFail, 1);
    EXPECT_EQ(cache.store(key, sample_artifacts(), &error),
              StoreResult::kIoError);
  }
  EXPECT_EQ(cache.stats().io_errors, 3u);
  // No fragment was ever published — not even a directory.
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());

  // Once the disk recovers, the same key publishes cleanly — the failure
  // poisoned the one store, not the cache.
  EXPECT_EQ(cache.store(key, sample_artifacts(), &error),
            StoreResult::kPublished)
      << error;
  EXPECT_TRUE(cache.lookup(key).has_value());
}

#endif  // CONFMASK_FAULT_INJECTION

TEST(CacheKey, RenameChangesKeyAndDigestReorderChangesNeither) {
  const ConfigSet base = make_figure2();
  const ConfMaskOptions options;
  const RetryPolicy policy;
  const auto base_key = compute_cache_key(base, options, policy,
                                          EquivalenceStrategy::kConfMask);
  const auto base_digests =
      compute_device_digests(canonical_config_set_text(base));

  // Rename without a content edit: the section text carries its own
  // `hostname` line, so both the name AND the digest move with it — and
  // the bundle key with them (names are hashed in canonical order).
  ConfigSet renamed = base;
  renamed.routers.back().hostname = "zz-renamed";
  EXPECT_NE(base_key, compute_cache_key(renamed, options, policy,
                                        EquivalenceStrategy::kConfMask));
  const auto renamed_digests =
      compute_device_digests(canonical_config_set_text(renamed));
  ASSERT_EQ(renamed_digests.size(), base_digests.size());

  // Device reorder is pure canonicalization: same key, same device table.
  ConfigSet reordered = base;
  std::reverse(reordered.routers.begin(), reordered.routers.end());
  EXPECT_EQ(base_key, compute_cache_key(reordered, options, policy,
                                        EquivalenceStrategy::kConfMask));
  EXPECT_EQ(compute_device_digests(canonical_config_set_text(reordered)),
            base_digests);
}

TEST(ArtifactCache, LookupOriginalReturnsTheSubmittedBundle) {
  ArtifactCache cache(fresh_dir("lookup_original"), "stamp-a");
  const CacheKey key{77, 78};
  CacheArtifacts artifacts = sample_artifacts();
  artifacts.original_configs = canonical_config_set_text(make_figure2());
  ASSERT_EQ(cache.store(key, artifacts), StoreResult::kPublished);

  const auto hit = cache.lookup_original(key.hex());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, artifacts.original_configs);

  EXPECT_FALSE(cache.lookup_original("ffffffffffffffff").has_value());
}

TEST(ArtifactCache, EntriesWithTheOlderDeviceTableKeepServing) {
  // Older builds published a sixth file, devices.tsv, a per-device digest
  // table nothing read. Their entries keep serving after an upgrade: the
  // table is ignored, uncounted, and removed with the entry.
  const fs::path root = fresh_dir("older_layout");
  const CacheKey key{21, 22};
  CacheArtifacts artifacts = sample_artifacts();
  artifacts.original_configs = canonical_config_set_text(make_figure2());
  std::uint64_t entry_bytes = 0;
  {
    ArtifactCache cache(root, "stamp-a");
    ASSERT_EQ(cache.store(key, artifacts), StoreResult::kPublished);
    entry_bytes = cache.total_bytes();
  }
  const fs::path entry = root / "entries" / key.hex();
  std::string table = "confmask.devices/1\n";
  for (const DeviceDigest& device :
       compute_device_digests(artifacts.original_configs)) {
    table += device.name + "\t" + hex64(device.primary) + "\t" +
             hex64(device.secondary) + "\n";
  }
  std::ofstream(entry / "devices.tsv") << table;

  // Budget for one and a half entries: the next publish evicts this one.
  ArtifactCache reopened(root, "stamp-a", entry_bytes + entry_bytes / 2);
  EXPECT_EQ(reopened.entry_count(), 1u);
  EXPECT_EQ(reopened.stats().invalidations, 0u);
  EXPECT_EQ(reopened.total_bytes(), entry_bytes);
  const auto hit = reopened.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->anonymized_configs, artifacts.anonymized_configs);
  EXPECT_EQ(hit->original_configs, artifacts.original_configs);
  EXPECT_EQ(hit->diagnostics_json, artifacts.diagnostics_json);
  EXPECT_EQ(hit->metrics_json, artifacts.metrics_json);
  const auto original = reopened.lookup_original(key.hex());
  ASSERT_TRUE(original.has_value());
  EXPECT_EQ(*original, artifacts.original_configs);

  ASSERT_EQ(reopened.store(CacheKey{23, 24}, artifacts),
            StoreResult::kPublished);
  EXPECT_EQ(reopened.stats().evictions, 1u);
  EXPECT_FALSE(fs::exists(entry));
  EXPECT_EQ(reopened.entry_count(), 1u);
}

TEST(ArtifactCache, MissingWatchFilesArePurgedAsV1Entries) {
  // A version-1 entry is structurally an entry without original.cfgset.
  // The opening scrub must purge it: it can serve neither a v2 key nor a
  // resubmit's base lookup.
  const fs::path root = fresh_dir("v1_purge");
  const CacheKey key{11, 12};
  {
    ArtifactCache cache(root, "stamp-a");
    cache.store(key, sample_artifacts());
  }
  fs::remove(root / "entries" / key.hex() / "original.cfgset");
  ArtifactCache reopened(root, "stamp-a");
  EXPECT_EQ(reopened.stats().invalidations, 1u);
  EXPECT_EQ(reopened.entry_count(), 0u);
  EXPECT_FALSE(reopened.lookup(key).has_value());
}

TEST(ArtifactCache, LruSeedTiesBreakDeterministicallyByKey) {
  // Filesystems quantize mtimes; entries published within one granule used
  // to seed recency in directory-iteration order — whatever the kernel
  // returned that day. Pin all three entries to the SAME mtime and reopen:
  // the victim must be chosen by the key tie-break, reproducibly.
  std::uint64_t entry_bytes = 0;
  {
    ArtifactCache probe(fresh_dir("lru_tie_probe"), "stamp-a");
    probe.store(CacheKey{1, 1}, sample_artifacts());
    entry_bytes = probe.total_bytes();
  }
  ASSERT_GT(entry_bytes, 0u);

  const fs::path root = fresh_dir("lru_tie");
  {
    ArtifactCache cache(root, "stamp-a");
    cache.store(CacheKey{3, 3}, sample_artifacts());
    cache.store(CacheKey{1, 1}, sample_artifacts());
    cache.store(CacheKey{2, 2}, sample_artifacts());
  }
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : fs::directory_iterator(root / "entries")) {
    fs::last_write_time(entry.path(), now);
  }

  // Budget for three and a half entries: publishing a fourth forces one
  // eviction, and with every seeded mtime equal the smallest key is the
  // deterministic victim.
  ArtifactCache reopened(root, "stamp-a",
                         entry_bytes * 3 + entry_bytes / 2);
  ASSERT_EQ(reopened.entry_count(), 3u);
  ASSERT_EQ(reopened.store(CacheKey{4, 4}, sample_artifacts()),
            StoreResult::kPublished);
  EXPECT_EQ(reopened.stats().evictions, 1u);
  EXPECT_FALSE(reopened.lookup(CacheKey{1, 1}).has_value());
  EXPECT_TRUE(reopened.lookup(CacheKey{2, 2}).has_value());
  EXPECT_TRUE(reopened.lookup(CacheKey{3, 3}).has_value());
  EXPECT_TRUE(reopened.lookup(CacheKey{4, 4}).has_value());
}

TEST(Hash, Fnv1a64KnownVectorsAndHexRoundTrip) {
  // FNV-1a/64 reference vectors.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ULL);
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xDEADBEEF12345678ULL), "deadbeef12345678");
  EXPECT_EQ(parse_hex64("deadbeef12345678"), 0xDEADBEEF12345678ULL);
  EXPECT_FALSE(parse_hex64("xyz").has_value());
  EXPECT_FALSE(parse_hex64("1234").has_value());  // must be 16 digits
}

}  // namespace
}  // namespace confmask
