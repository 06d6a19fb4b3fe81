// Tenant namespaces: name validation, the json-line quota table, and the
// two isolation mechanisms underneath the fleet layer — the tenant folded
// into the cache-key digest (identical jobs under different tenants can
// never share an entry, by address) and the artifact cache's per-tenant
// byte shares (a tenant filling its share evicts from itself first).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/cache_key.hpp"
#include "src/service/tenant.hpp"

namespace confmask {
namespace {

namespace fs = std::filesystem;

fs::path fresh_cache_dir(const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("confmask_tenant_" + tag + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

TEST(TenantNames, ValidationIsStrict) {
  EXPECT_TRUE(valid_tenant_name("default"));
  EXPECT_TRUE(valid_tenant_name("acme-corp.prod_2"));
  EXPECT_TRUE(valid_tenant_name("A"));
  EXPECT_TRUE(valid_tenant_name(std::string(64, 'x')));

  EXPECT_FALSE(valid_tenant_name(""));
  EXPECT_FALSE(valid_tenant_name("*"));  // reserved for the defaults line
  EXPECT_FALSE(valid_tenant_name(std::string(65, 'x')));
  EXPECT_FALSE(valid_tenant_name("has space"));
  EXPECT_FALSE(valid_tenant_name("slash/y"));  // '/' delimits trace tags
  EXPECT_FALSE(valid_tenant_name("quote\""));
  EXPECT_FALSE(valid_tenant_name("uni\xC3\xA9"));
}

TEST(TenantTable, ParsesQuotasDefaultsAndComments) {
  const std::string text =
      "# fleet quotas\n"
      "\n"
      "{\"tenant\": \"*\", \"max_pending\": 8}\n"
      "{\"tenant\": \"acme\", \"max_pending\": 2, \"max_concurrent\": 1, "
      "\"cache_share_bytes\": 4096, \"weight\": 3}\n"
      "  {\"tenant\": \"beta\", \"weight\": 0}\n";
  std::string error;
  const auto table = parse_tenant_table(text, &error);
  ASSERT_TRUE(table.has_value()) << error;

  EXPECT_EQ(table->quota_for("acme").max_pending, 2u);
  EXPECT_EQ(table->quota_for("acme").max_concurrent, 1);
  EXPECT_EQ(table->quota_for("acme").cache_share_bytes, 4096u);
  EXPECT_EQ(table->quota_for("acme").weight, 3);
  // weight 0 clamps to 1 (a zero quantum would starve the tenant forever).
  EXPECT_EQ(table->quota_for("beta").weight, 1);
  // Unnamed tenants inherit the "*" defaults.
  EXPECT_EQ(table->quota_for("unlisted").max_pending, 8u);
  EXPECT_EQ(table->quota_for("unlisted").max_concurrent, 0);

  const auto shares = table->cache_shares();
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares.at("acme"), 4096u);
}

TEST(TenantTable, ErrorsNameTheLine) {
  std::string error;
  EXPECT_FALSE(parse_tenant_table("{\"max_pending\": 1}\n", &error));
  EXPECT_NE(error.find("tenants line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("missing \"tenant\""), std::string::npos) << error;

  EXPECT_FALSE(parse_tenant_table(
      "{\"tenant\": \"a\"}\n{\"tenant\": \"b\", \"bogus\": 1}\n", &error));
  EXPECT_NE(error.find("tenants line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown field"), std::string::npos) << error;

  EXPECT_FALSE(
      parse_tenant_table("{\"tenant\": \"a\", \"weight\": -2}\n", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos) << error;
  EXPECT_FALSE(parse_tenant_table(
      "{\"tenant\": \"a\", \"max_concurrent\": 4294967297}\n", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos) << error;

  EXPECT_FALSE(parse_tenant_table(
      "{\"tenant\": \"a\"}\n{\"tenant\": \"a\"}\n", &error));
  EXPECT_NE(error.find("duplicate tenant"), std::string::npos) << error;

  EXPECT_FALSE(parse_tenant_table(
      "{\"tenant\": \"*\"}\n{\"tenant\": \"*\"}\n", &error));
  EXPECT_NE(error.find("duplicate \"*\""), std::string::npos) << error;

  EXPECT_FALSE(parse_tenant_table("{\"tenant\": \"no/slash\"}\n", &error));
  EXPECT_NE(error.find("invalid tenant name"), std::string::npos) << error;
}

// The isolation mechanism itself: the tenant is hashed into the digest, so
// identical inputs under different tenants produce different addresses —
// and the default tenant is exactly "no tenant named".
TEST(TenantCacheKeys, TenantIsFoldedIntoTheDigest) {
  const std::string bundle = canonical_config_set_text(make_figure2());
  const ConfMaskOptions options;
  const RetryPolicy policy;
  const CacheKey base = compute_cache_key(bundle, options, policy,
                                          EquivalenceStrategy::kConfMask);
  const CacheKey named = compute_cache_key(bundle, options, policy,
                                           EquivalenceStrategy::kConfMask,
                                           "acme");
  const CacheKey other = compute_cache_key(bundle, options, policy,
                                           EquivalenceStrategy::kConfMask,
                                           "beta");
  const CacheKey defaulted = compute_cache_key(bundle, options, policy,
                                               EquivalenceStrategy::kConfMask,
                                               "default");
  EXPECT_EQ(base, defaulted);
  EXPECT_NE(base, named);
  EXPECT_NE(named, other);
  // Length-prefixed encoding: "ab" + "c" can't collide with "a" + "bc".
  EXPECT_NE(compute_cache_key(bundle, options, policy,
                              EquivalenceStrategy::kConfMask, "ab"),
            compute_cache_key(bundle, options, policy,
                              EquivalenceStrategy::kConfMask, "a"));
}

CacheArtifacts make_artifacts(const std::string& tag) {
  CacheArtifacts artifacts;
  artifacts.anonymized_configs = "anon-" + tag;
  artifacts.original_configs = canonical_config_set_text(make_figure2());
  artifacts.diagnostics_json = "{\"tag\": \"" + tag + "\"}";
  artifacts.metrics_json = "{}";
  return artifacts;
}

TEST(TenantCache, EntriesRememberTheirTenantAndServePeerFetch) {
  ArtifactCache cache(fresh_cache_dir("roundtrip"), "stamp-1");
  CacheKey key;
  key.primary = 0x1111222233334444ull;
  key.secondary = 0x5555666677778888ull;
  const CacheArtifacts artifacts = make_artifacts("acme");
  ASSERT_EQ(cache.store(key, artifacts, nullptr, "acme"),
            StoreResult::kPublished);

  // lookup_by_hex (the peer-fetch read) returns the full key, the owning
  // tenant, and every artifact byte.
  const auto entry = cache.lookup_by_hex(key.hex());
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->key, key);
  EXPECT_EQ(entry->tenant, "acme");
  EXPECT_EQ(entry->artifacts.anonymized_configs,
            artifacts.anonymized_configs);
  EXPECT_EQ(entry->artifacts.original_configs, artifacts.original_configs);
  EXPECT_EQ(entry->artifacts.diagnostics_json, artifacts.diagnostics_json);
  EXPECT_EQ(entry->artifacts.metrics_json, artifacts.metrics_json);

  // A probe for a key nobody published is a quiet nullopt — no purge, no
  // miss counted (peers probing absent keys is normal fleet traffic).
  const CacheStats before = cache.stats();
  EXPECT_FALSE(cache.lookup_by_hex("00000000000000ff").has_value());
  EXPECT_EQ(cache.stats().misses, before.misses);

  // lookup_original is tenant-scoped: the right tenant resolves the diff
  // base, any other tenant gets a plain miss, never a disclosure.
  EXPECT_TRUE(cache.lookup_original(key.hex(), "acme").has_value());
  EXPECT_FALSE(cache.lookup_original(key.hex(), "beta").has_value());
  EXPECT_FALSE(cache.lookup_original(key.hex(), "default").has_value());
  // And the wrong-tenant miss did not destroy the entry.
  EXPECT_TRUE(cache.lookup_original(key.hex(), "acme").has_value());

  // Reopen: the tenant attribution survives the on-disk round trip.
  ArtifactCache reopened(cache.root(), "stamp-1");
  EXPECT_GT(reopened.tenant_bytes("acme"), 0u);
  const auto again = reopened.lookup_by_hex(key.hex());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->tenant, "acme");
}

TEST(TenantCache, ShareEvictionReclaimsFromTheOverSpenderFirst) {
  ArtifactCache cache(fresh_cache_dir("shares"), "stamp-1");
  const std::uint64_t one_entry = [&] {
    // Measure an entry's on-disk footprint once, so share thresholds can
    // be set in entries, not guessed bytes.
    CacheKey probe;
    probe.primary = 0xAAAA000000000001ull;
    probe.secondary = 1;
    // Tags are all 4 bytes so every entry has the same on-disk size.
    EXPECT_EQ(cache.store(probe, make_artifacts("prob"), nullptr, "acme"),
              StoreResult::kPublished);
    return cache.total_bytes();
  }();
  ASSERT_GT(one_entry, 0u);

  // acme may hold ~2 entries; beta is unshared.
  cache.set_tenant_shares({{"acme", 2 * one_entry + one_entry / 2}});

  CacheKey beta_key;
  beta_key.primary = 0xBBBB000000000001ull;
  beta_key.secondary = 2;
  ASSERT_EQ(cache.store(beta_key, make_artifacts("beta"), nullptr, "beta"),
            StoreResult::kPublished);

  for (int i = 2; i <= 4; ++i) {
    CacheKey key;
    key.primary = 0xAAAA000000000000ull + static_cast<std::uint64_t>(i);
    key.secondary = static_cast<std::uint64_t>(i);
    ASSERT_EQ(cache.store(key, make_artifacts("acme"), nullptr, "acme"),
              StoreResult::kPublished);
  }

  // acme got squeezed back under its share...
  EXPECT_LE(cache.tenant_bytes("acme"), 2 * one_entry + one_entry / 2);
  EXPECT_GT(cache.stats().evictions, 0u);
  // ...and beta's entry was never touched: over-share tenants reclaim
  // from themselves, not their neighbors.
  EXPECT_TRUE(cache.lookup_by_hex(beta_key.hex()).has_value());
  EXPECT_EQ(cache.tenant_bytes("beta"), one_entry);
}

}  // namespace
}  // namespace confmask
