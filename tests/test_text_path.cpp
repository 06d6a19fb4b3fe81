// The bundle text path of confmaskd, pinned byte for byte.
//
// Everything the daemon writes or sends is text derived from a bundle:
// cache keys, journal records, and JSON lines with the bundle escaped
// inside. These tests pin those bytes by digest on the evaluation networks
// and the scale families, pin JSON quoting of every byte value against a
// per-byte reference, and pin the parser's errors (message and line
// number) on malformed bundles. The tables were read before the text path
// was rewritten for speed; a change that alters any of these bytes on
// purpose updates the table and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/cache_key.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/json_line.hpp"
#include "src/util/hash.hpp"

namespace confmask {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("confmask_" + name);
  fs::remove_all(dir);
  return dir;
}

/// The pinned bundles: A–H, then the four scale families at 316 routers
/// (network seed 1), as canonical text.
std::vector<std::pair<std::string, std::string>> pinned_bundles() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const EvalNetwork& network : evaluation_networks()) {
    out.emplace_back(network.id, canonical_config_set_text(network.configs));
  }
  const std::pair<const char*, ScaleFamily> families[] = {
      {"waxman-ospf-316", ScaleFamily::kWaxman},
      {"waxman-rip-316", ScaleFamily::kWaxmanRip},
      {"multi-as-316", ScaleFamily::kMultiAs},
      {"pref-attach-316", ScaleFamily::kPreferentialAttachment}};
  for (const auto& [name, family] : families) {
    out.emplace_back(name, canonical_config_set_text(
                               make_scale_network(family, 316, 1)));
  }
  return out;
}

/// One bundle's keys under the default tenant and under "acme".
struct KeyRow {
  std::string name;
  std::string primary;
  std::string secondary;
  std::string acme_primary;
  std::string acme_secondary;
};

std::string row_text(const KeyRow& row) {
  return "{\"" + row.name + "\", \"" + row.primary + "\", \"" +
         row.secondary + "\", \"" + row.acme_primary + "\", \"" +
         row.acme_secondary + "\"},";
}

TEST(TextPath, CacheKeysAreGolden) {
  // name, primary, secondary, acme primary, acme secondary
  const std::vector<KeyRow> expected = {
      {"A", "793c2ee8da360d27", "c963dd87bfa63a32",
       "393fd7398b2a735b", "62f8acbdb2136c04"},
      {"B", "d953338efe7cab0e", "b5fb7a93bedd0bc0",
       "041154a972e14792", "35f6e7907f6e2bd2"},
      {"C", "9d800d983468d013", "8253ebdd1c751006",
       "070e44463e73e8f7", "2ce53ec4b8471a48"},
      {"D", "4775c56b4abbf371", "1b2c8372b56b5ec5",
       "080ec605b4ddcb6d", "0e51f4bf6351224f"},
      {"E", "41e8169462dda90f", "45da67cc9600f287",
       "96b3c3c2b521ef9b", "05ff8d168b76f921"},
      {"F", "a14e2ca88b792d23", "1eca88abf66bfe73",
       "76ca929c2d2ae5ef", "b18b35df3856e7a5"},
      {"G", "053561ae565c6aba", "39d2c1cb12736a3f",
       "922b440bd6b1ce1e", "75f7b244e3a5274d"},
      {"H", "49294ce55de21dc7", "de2f7bf07b3235e2",
       "32094aa9c7aab413", "d0f1c5af9ed4ce04"},
      {"waxman-ospf-316", "0ad78f35c2a501dc", "4789f04f14f2ea07",
       "14e36ef7f65edf80", "b2eea574e7298cfd"},
      {"waxman-rip-316", "497493b57665e7fe", "ae313532f6d4f7c3",
       "362baf7416b5ea22", "e0b0316e1d2dc3b1"},
      {"multi-as-316", "af4eae74e264d9b6", "ed63b8af06fa1d95",
       "a816c845b9c9f4ca", "ea9ff39c6a0ae0ff"},
      {"pref-attach-316", "e16ad11fbcaeba69", "d50666dff4b653d6",
       "aa284bed512cbac5", "c42696236824f0a8"},
  };
  const ConfMaskOptions options;
  const RetryPolicy policy;
  std::size_t row = 0;
  for (const auto& [name, text] : pinned_bundles()) {
    const CacheKey key = compute_cache_key(
        text, options, policy, EquivalenceStrategy::kConfMask);
    const CacheKey acme = compute_cache_key(
        text, options, policy, EquivalenceStrategy::kConfMask, "acme");
    const KeyRow actual{name, key.hex(), hex64(key.secondary), acme.hex(),
                        hex64(acme.secondary)};
    if (row < expected.size()) {
      EXPECT_EQ(row_text(actual), row_text(expected[row]));
    } else {
      ADD_FAILURE() << "no golden row: " << row_text(actual);
    }
    ++row;
  }
  EXPECT_EQ(row, expected.size());
}

JobRequest pinned_request() {
  JobRequest request;
  request.configs = canonicalize(make_figure2());
  request.options.k_r = 3;
  request.options.k_h = 2;
  request.options.noise_p = 0.25;
  request.options.seed = 0xFEEDFACECAFEULL;
  request.options.link_pool = Ipv4Prefix{Ipv4Address{172, 24, 0, 0}, 14};
  request.deadline_ms = 90'000;
  request.tenant = "acme";
  return request;
}

TEST(TextPath, JournalRecordsAreGolden) {
  const JobRequest request = pinned_request();
  const std::string text = canonical_config_set_text(request.configs);
  const CacheKey key = job_key(request, text);
  const std::string submit = JobJournal::encode_submit(42, request, key, text);
  EXPECT_TRUE(JobJournal::crc_ok(submit));
  EXPECT_EQ(hex64(fnv1a64(submit)), "ee7e694de6d1c340");

  JobStatus status;
  status.id = 42;
  status.state = JobState::kFailed;
  status.tenant = "acme";
  status.cache_key = key.hex();
  status.error_stage = "Verification";
  status.error_category = "NonConvergent";
  status.error_message = "diverged: \"r1\" -> \\r2\t\x01 at\nline 3";
  status.exit_code = 12;
  const std::string state = JobJournal::encode_state(status, key.secondary);
  EXPECT_TRUE(JobJournal::crc_ok(state));
  EXPECT_EQ(hex64(fnv1a64(state)), "86eea29219f95f9b");
}

/// JSON string escaping of one byte, as the protocol has always written
/// it: the two-character escapes for quote, backslash, newline, carriage
/// return and tab, \u00XX for the other control bytes, and every other
/// byte (0x7F and all of 0x80–0xFF included) as itself.
std::string reference_escape(unsigned char byte) {
  switch (byte) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: break;
  }
  if (byte < 0x20) {
    char text[7];
    std::snprintf(text, sizeof text, "\\u%04x", static_cast<unsigned>(byte));
    return text;
  }
  return std::string(1, static_cast<char>(byte));
}

std::string reference_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    out += reference_escape(static_cast<unsigned char>(c));
  }
  return out + "\"";
}

void expect_quotes_like_reference(const std::string& text) {
  const std::string quoted = reference_quote(text);
  const std::string line = JsonWriter{}.string("v", text).str();
  ASSERT_EQ(line, "{\"v\": " + quoted + "}");
  EXPECT_EQ(JsonWriter{}.boolean(text, true).str(), "{" + quoted + ": true}");
  const auto parsed = parse_json_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(get_string(*parsed, "v"), text);
}

TEST(TextPath, JsonQuoteOfEveryByteMatchesThePerByteReference) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const char byte = static_cast<char>(b);
    all += byte;
    expect_quotes_like_reference(std::string(1, byte));
    // Runs of one byte, and the byte between clean runs of growing length,
    // so escapes land at every offset of a bulk copy.
    for (const std::size_t run : {2u, 7u, 8u, 9u, 16u, 33u}) {
      expect_quotes_like_reference(std::string(run, byte));
      expect_quotes_like_reference(std::string(run, 'a') + byte +
                                   std::string(run, 'z') + byte);
    }
  }
  expect_quotes_like_reference(all);
  expect_quotes_like_reference(all + all);
  expect_quotes_like_reference("");
}

/// The ConfigParseError a bundle throws, as "what()".
std::string parse_error(const std::string& bundle) {
  try {
    (void)parse_config_set(bundle);
  } catch (const ConfigParseError& error) {
    return error.what();
  }
  return "(parsed)";
}

constexpr const char* kDevice =
    "!>> device r1\n"
    "hostname r1\n"
    "!\n"
    "interface Ethernet0\n"
    " ip address 10.0.0.1 255.255.255.0\n"
    "!\n";

TEST(TextPath, BundleWithoutFinalNewlineParsesAndDigestsAsWithIt) {
  const std::string full = canonical_config_set_text(make_figure2());
  ASSERT_EQ(full.back(), '\n');
  // Drop the final newline, and with it any trailing "!" separator line.
  std::string cut = full.substr(0, full.size() - 1);
  EXPECT_EQ(canonical_config_set_text(parse_config_set(cut)), full);
  EXPECT_EQ(compute_device_digests(cut), compute_device_digests(full));
  const std::string bare =
      std::string(kDevice) + "ip route 10.9.0.0 255.255.0.0 10.0.0.2";
  const ConfigSet parsed = parse_config_set(bare);
  ASSERT_EQ(parsed.routers.size(), 1u);
  ASSERT_EQ(parsed.routers[0].static_routes.size(), 1u);
  EXPECT_EQ(compute_device_digests(bare),
            compute_device_digests(bare + "\n"));
}

TEST(TextPath, LinesOfMoreThanSixteenTokensParseInFull) {
  // 7 + 2 × 6 = 19 tokens; later ge/le pairs overwrite earlier ones.
  const std::string long_list =
      "ip prefix-list L seq 5 permit 10.0.0.0/8 ge 9 le 30 ge 10 le 29 ge 11 "
      "le 28\n";
  const std::string passthrough =
      "banner motd a b c d e f g h i j k l m n o p q r s t\n";
  const ConfigSet parsed =
      parse_config_set(std::string(kDevice) + long_list + passthrough);
  ASSERT_EQ(parsed.routers.size(), 1u);
  const RouterConfig& router = parsed.routers[0];
  ASSERT_EQ(router.prefix_lists.size(), 1u);
  ASSERT_EQ(router.prefix_lists[0].entries.size(), 1u);
  EXPECT_EQ(router.prefix_lists[0].entries[0].ge, 11);
  EXPECT_EQ(router.prefix_lists[0].entries[0].le, 28);
  ASSERT_EQ(router.extra_lines.size(), 1u);
  EXPECT_EQ(router.extra_lines[0] + "\n", passthrough);

  EXPECT_EQ(parse_error(std::string(kDevice) +
                        "ip prefix-list L seq 5 permit 10.0.0.0/8 ge 9 le 30 "
                        "ge 10 le 29 ge 11 le 28 bogus 1\n"),
            "r1: line 6: unexpected token: bogus");
  EXPECT_EQ(parse_error(std::string(kDevice) +
                        "access-list 10 permit ip any any a b c d e f g h i "
                        "j k l m n\n"),
            "r1: line 6: trailing tokens in access-list");
}

TEST(TextPath, MalformedBundlesNameTheirLine) {
  EXPECT_EQ(parse_error(std::string(kDevice) + "!>> device r2\nhostname r2\n" +
                        "!>> device r1\nhostname r1\n"),
            "line 9: duplicate device marker 'r1' (first defined at line 1)");
  EXPECT_EQ(parse_error("!\n\nhostname r0\n" + std::string(kDevice)),
            "line 3: configuration text before the first device marker");
  EXPECT_EQ(parse_error(std::string(kDevice) + "!>> device   \nhostname x\n"),
            "line 7: device marker without a name");
  EXPECT_EQ(parse_error("!>> device r1\nhostname r1\n!\ninterface E0\n"
                        " ip address 10.0.0.256 255.255.255.0\n"),
            "r1: line 4: bad address: 10.0.0.256");
  EXPECT_EQ(parse_error("!\n! comment only\n"),
            "line 1: no device markers in configuration bundle");
}

TEST(TextPath, ConcurrentIdenticalStoresPublishOnceAndLeaveNoLitter) {
  const fs::path root = fresh_dir("text_path_concurrent");
  ArtifactCache cache(root, "stamp-text-path");
  CacheArtifacts artifacts;
  artifacts.original_configs = canonical_config_set_text(make_figure2());
  artifacts.anonymized_configs = artifacts.original_configs;
  artifacts.diagnostics_json = "{}\n";
  artifacts.metrics_json = "{}\n";
  const CacheKey key{0x1234, 0x5678};
  std::vector<StoreResult> results(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] { results[i] = cache.store(key, artifacts); });
  }
  for (std::thread& thread : threads) thread.join();
  std::size_t published = 0;
  for (const StoreResult result : results) {
    EXPECT_NE(result, StoreResult::kIoError);
    if (result == StoreResult::kPublished) ++published;
  }
  EXPECT_EQ(published, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_TRUE(fs::is_empty(root / "staging"));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->original_configs, artifacts.original_configs);
}

}  // namespace
}  // namespace confmask
