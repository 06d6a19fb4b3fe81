#include "src/service/cache_key.hpp"

#include <algorithm>
#include <bit>

#include "src/config/emit.hpp"
#include "src/util/hash.hpp"

namespace confmask {

namespace {

// An alternate odd basis (FNV prime xor'd into the offset basis) for the
// secondary digest; any fixed constant distinct from kOffsetBasis gives an
// independent 64-bit check against accidental primary collisions.
constexpr std::uint64_t kSecondaryBasis =
    Fnv1a64::kOffsetBasis ^ 0xA5A5A5A5A5A5A5A5ULL;

/// Both digests of one device section. The section's bytes are its
/// lines, each with its '\n': a bundle's last line counts one even when
/// the text lacks it.
DeviceDigest digest_section(std::string_view name, std::string_view body) {
  const bool add_newline = !body.empty() && body.back() != '\n';
  Fnv1a64 primary;
  Fnv1a64 secondary(kSecondaryBasis);
  const std::uint64_t size = body.size() + (add_newline ? 1 : 0);
  primary.update_u64(size);
  secondary.update_u64(size);
  Fnv1a64::update_both(primary, secondary, body);
  if (add_newline) Fnv1a64::update_both(primary, secondary, "\n");
  return DeviceDigest{std::string(name), primary.value(), secondary.value()};
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
  field("strategy", to_string(strategy));
  field("k_r", std::to_string(options.k_r));
  field("k_h", std::to_string(options.k_h));
  field("noise_p_bits",
        hex64(std::bit_cast<std::uint64_t>(options.noise_p)));
  field("seed", std::to_string(options.seed));
  field("cost_policy", to_string(options.cost_policy));
  // Retired iteration budgets, at their old defaults: journaled keys hold.
  field("max_equivalence_iterations", "64");
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
  field("retry.equivalence_iteration_ladder", "64,128,256");
  field("retry.diff_limit", std::to_string(policy.diff_limit));
  field("retry.max_attempts", std::to_string(policy.max_attempts));
  return out;
}

namespace {

/// The key of a job whose network has the device table `devices`: the one
/// key derivation, which the public overloads wrap.
CacheKey compute_cache_key(const std::vector<DeviceDigest>& devices,
                           const ConfMaskOptions& options,
                           const RetryPolicy& policy,
                           EquivalenceStrategy strategy,
                           const std::string& tenant) {
  const std::string params =
      canonical_parameter_text(options, policy, strategy);
  CacheKey key;
  for (const bool secondary : {false, true}) {
    Fnv1a64 hasher(secondary ? kSecondaryBasis : Fnv1a64::kOffsetBasis);
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
    // content digests of the same basis.
    hasher.update_u64(devices.size());
    for (const DeviceDigest& device : devices) {
      hasher.update_u64(device.name.size());
      hasher.update(device.name);
      hasher.update_u64(secondary ? device.secondary : device.primary);
    }
    (secondary ? key.secondary : key.primary) = hasher.value();
  }
  return key;
}

}  // namespace

CacheKey compute_cache_key(std::string_view canonical_text,
                           const ConfMaskOptions& options,
                           const RetryPolicy& policy,
                           EquivalenceStrategy strategy,
                           const std::string& tenant) {
  return compute_cache_key(compute_device_digests(canonical_text), options,
                           policy, strategy, tenant);
}

std::vector<DeviceDigest> compute_device_digests(std::string_view text) {
  // Sections are delimited by kDeviceMarker lines and names carry no
  // surrounding whitespace (canonical_config_set_text wrote them), so this
  // is a byte-level split, not a parse. Text before the first marker
  // belongs to no device.
  std::vector<DeviceDigest> digests;
  std::string_view name;
  std::size_t begin = std::string_view::npos;  // body of the open section
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    if (line.starts_with(kDeviceMarker)) {
      if (begin != std::string_view::npos) {
        digests.push_back(
            digest_section(name, text.substr(begin, pos - begin)));
      }
      name = line.substr(kDeviceMarker.size());
      begin = std::min(eol + 1, text.size());
    }
    pos = eol + 1;
  }
  if (begin != std::string_view::npos) {
    digests.push_back(digest_section(name, text.substr(begin)));
  }
  return digests;
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
