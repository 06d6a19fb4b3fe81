#include "src/service/cache_key.hpp"

#include <bit>
#include <utility>

#include "src/config/emit.hpp"
#include "src/util/hash.hpp"

namespace confmask {

namespace {

const char* strategy_name(EquivalenceStrategy strategy) {
  switch (strategy) {
    case EquivalenceStrategy::kConfMask: return "confmask";
    case EquivalenceStrategy::kStrawman1: return "strawman1";
    case EquivalenceStrategy::kStrawman2: return "strawman2";
  }
  return "unknown";
}

const char* cost_policy_name(FakeLinkCostPolicy policy) {
  switch (policy) {
    case FakeLinkCostPolicy::kMinCost: return "min_cost";
    case FakeLinkCostPolicy::kDefault: return "default";
    case FakeLinkCostPolicy::kLarge: return "large";
  }
  return "unknown";
}

// An alternate odd basis (FNV prime xor'd into the offset basis) for the
// secondary digest; any fixed constant distinct from kOffsetBasis gives an
// independent 64-bit check against accidental primary collisions.
constexpr std::uint64_t kSecondaryBasis =
    Fnv1a64::kOffsetBasis ^ 0xA5A5A5A5A5A5A5A5ULL;

/// Splits a canonical bundle into (device name, section text) pairs. The
/// canonical text is produced by canonical_config_set_text, so sections are
/// delimited by kDeviceMarker lines and names carry no surrounding
/// whitespace; this is a byte-level split, not a parse.
std::vector<std::pair<std::string, std::string>> split_canonical_bundle(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> sections;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    if (line.substr(0, kDeviceMarker.size()) == kDeviceMarker) {
      sections.emplace_back(std::string(line.substr(kDeviceMarker.size())),
                            std::string());
    } else if (!sections.empty()) {
      sections.back().second.append(line);
      sections.back().second.push_back('\n');
    }
    pos = eol + 1;
  }
  return sections;
}

std::uint64_t section_digest(const std::string& body, std::uint64_t basis) {
  Fnv1a64 hasher(basis);
  hasher.update_u64(body.size());
  hasher.update(body);
  return hasher.value();
}

}  // namespace

std::string CacheKey::hex() const { return hex64(primary); }

std::string canonical_parameter_text(const ConfMaskOptions& options,
                                     const RetryPolicy& policy,
                                     EquivalenceStrategy strategy) {
  // Versioned ("params/1"): any change to the encoding (field added,
  // meaning changed) must bump the version so old cache entries can never
  // alias new requests.
  std::string out = "params/1\n";
  const auto field = [&out](const char* name, const std::string& value) {
    out += name;
    out += '=';
    out += value;
    out += '\n';
  };
  field("strategy", strategy_name(strategy));
  field("k_r", std::to_string(options.k_r));
  field("k_h", std::to_string(options.k_h));
  field("noise_p_bits",
        hex64(std::bit_cast<std::uint64_t>(options.noise_p)));
  field("seed", std::to_string(options.seed));
  field("cost_policy", cost_policy_name(options.cost_policy));
  field("max_equivalence_iterations",
        std::to_string(options.max_equivalence_iterations));
  field("fake_routers", std::to_string(options.fake_routers));
  field("links_per_fake_router",
        std::to_string(options.links_per_fake_router));
  field("link_pool", options.link_pool ? options.link_pool->str() : "-");
  field("host_pool", options.host_pool ? options.host_pool->str() : "-");
  field("retry.max_reseeds", std::to_string(policy.max_reseeds));
  field("retry.k_r_floor", std::to_string(policy.k_r_floor));
  field("retry.k_r_step", std::to_string(policy.k_r_step));
  field("retry.max_pool_expansions",
        std::to_string(policy.max_pool_expansions));
  field("retry.pool_widen_bits", std::to_string(policy.pool_widen_bits));
  std::string ladder;
  for (const int value : policy.equivalence_iteration_ladder) {
    if (!ladder.empty()) ladder += ',';
    ladder += std::to_string(value);
  }
  field("retry.equivalence_iteration_ladder", ladder);
  field("retry.diff_limit", std::to_string(policy.diff_limit));
  field("retry.max_attempts", std::to_string(policy.max_attempts));
  return out;
}

CacheKey compute_cache_key(const std::string& canonical_text,
                           const ConfMaskOptions& options,
                           const RetryPolicy& policy,
                           EquivalenceStrategy strategy,
                           const std::string& tenant) {
  const std::string params =
      canonical_parameter_text(options, policy, strategy);
  const auto sections = split_canonical_bundle(canonical_text);
  CacheKey key;
  for (const bool secondary : {false, true}) {
    const std::uint64_t basis =
        secondary ? kSecondaryBasis : Fnv1a64::kOffsetBasis;
    Fnv1a64 hasher(basis);
    hasher.update("confmask.cache-key/3\n");
    // The namespace comes first: two tenants' otherwise-identical jobs
    // diverge at the first hashed byte.
    hasher.update_u64(tenant.size());
    hasher.update(tenant);
    // Length prefixes keep every variable-size field unambiguous.
    hasher.update_u64(params.size());
    hasher.update(params);
    // The network as a device table: names in canonical order (order is
    // output-relevant — node ids follow config order) plus per-section
    // content digests. Hashing the digest rather than the section bytes
    // keeps the key a pure function of exactly the values the artifact
    // cache persists per device.
    hasher.update_u64(sections.size());
    for (const auto& [name, body] : sections) {
      hasher.update_u64(name.size());
      hasher.update(name);
      hasher.update_u64(section_digest(body, basis));
    }
    (secondary ? key.secondary : key.primary) = hasher.value();
  }
  return key;
}

std::vector<DeviceDigest> compute_device_digests(
    const std::string& canonical_text) {
  std::vector<DeviceDigest> digests;
  for (const auto& [name, body] : split_canonical_bundle(canonical_text)) {
    digests.push_back(DeviceDigest{
        name, section_digest(body, Fnv1a64::kOffsetBasis),
        section_digest(body, kSecondaryBasis)});
  }
  return digests;
}

std::vector<DeviceDigest> compute_device_digests(const ConfigSet& configs) {
  return compute_device_digests(canonical_config_set_text(configs));
}

CacheKey compute_cache_key(const ConfigSet& configs,
                           const ConfMaskOptions& options,
                           const RetryPolicy& policy,
                           EquivalenceStrategy strategy,
                           const std::string& tenant) {
  return compute_cache_key(canonical_config_set_text(configs), options,
                           policy, strategy, tenant);
}

}  // namespace confmask
