// Content-addressed cache keys for anonymization jobs.
//
// A job is (network, pipeline parameters, retry policy, strategy). Two jobs
// with the same key MUST produce byte-identical artifacts, so the key is a
// digest of a CANONICAL encoding of everything the pipeline's output
// depends on:
//  * the network, as canonical_config_set_text() — device order normalized,
//    so the same network submitted from differently-ordered directories
//    keys (and executes) identically;
//  * every ConfMaskOptions field (k_r, k_h, noise_p, seed, cost policy,
//    fake routers, pool overrides). Engine choices that
//    never change output bytes are not options and are not keyed: the
//    worker count, and the patch base a watch-mode run reuses;
//  * the RetryPolicy, because the fallback ladder changes the effective
//    parameters of the final attempt (a reseed or k_r relaxation is
//    visible in the artifact bytes);
//  * the equivalence strategy. confmaskd runs every job with ConfMask's
//    own and keys it so (job_key, job_scheduler.hpp); the strawmen are
//    in-process baselines.
//
// The build stamp is NOT part of the key — it lives in the entry metadata
// and is checked at lookup (ArtifactCache), so a stale-binary entry is
// invalidated in place instead of leaking forever under a dead key.
//
// Encoding version 2 ("confmask.cache-key/2") hashes the network as a
// device TABLE — per-device name plus a digest of the device's canonical
// section text — instead of one opaque bundle blob. The overall key is
// unchanged in spirit (same inputs, same device order sensitivity: the
// name sequence is hashed in canonical order). The per-device digests
// (compute_device_digests) are only the key's input: nothing stores or
// reads them. The version bump invalidated every v1 cache entry, which
// stored no original bundle and so could never serve a resubmit.
//
// Encoding version 3 ("confmask.cache-key/3") folds the TENANT into the
// digest, length-prefixed like every other field. Identical configs and
// parameters submitted under different tenants therefore key — and cache —
// separately by construction: namespace isolation is a property of the
// address, not of any lookup-time filter, so no code path (peer-fetch
// included) can leak one tenant's artifact to another. The bump
// invalidates v2 entries, which recorded no tenant.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/config/model.hpp"
#include "src/core/confmask.hpp"
#include "src/core/pipeline_runner.hpp"

namespace confmask {

struct CacheKey {
  std::uint64_t primary = 0;    ///< FNV-1a/64 of the canonical encoding
  std::uint64_t secondary = 0;  ///< same bytes, independent basis — the
                                ///< collision guard stored in metadata

  /// 16-hex-digit primary digest: the entry's directory name.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Canonical parameter encoding (deterministic, versioned). Exposed so
/// tests can assert exactly what the key covers; doubles are encoded as
/// their IEEE-754 bit pattern, not decimal text, so the encoding never
/// depends on formatting.
[[nodiscard]] std::string canonical_parameter_text(
    const ConfMaskOptions& options, const RetryPolicy& policy,
    EquivalenceStrategy strategy);

/// Content digest of one device's canonical section text (the bytes
/// between its kDeviceMarker line and the next marker). The section text
/// includes the device's own `hostname` line, so a rename changes BOTH the
/// digest and the name — and the bundle key twice over, since names are
/// additionally hashed into the key in canonical order.
struct DeviceDigest {
  std::string name;
  std::uint64_t primary = 0;
  std::uint64_t secondary = 0;

  friend bool operator==(const DeviceDigest&, const DeviceDigest&) = default;
};

/// Per-device digests of a canonical bundle, in its device order: exactly
/// the values the key hashes for its network. One pass over each
/// section's bytes computes both digests, with no copy of the section.
[[nodiscard]] std::vector<DeviceDigest> compute_device_digests(
    std::string_view canonical_text);

/// The key of a job. `configs` need not be in canonical order — the
/// encoding canonicalizes. `tenant` is the namespace the job runs under
/// (kDefaultTenant when the request named none).
[[nodiscard]] CacheKey compute_cache_key(const ConfigSet& configs,
                                         const ConfMaskOptions& options,
                                         const RetryPolicy& policy,
                                         EquivalenceStrategy strategy,
                                         const std::string& tenant = "default");

/// Key over a pre-rendered canonical bundle (avoids re-emitting when the
/// caller already holds the canonical text).
[[nodiscard]] CacheKey compute_cache_key(std::string_view canonical_text,
                                         const ConfMaskOptions& options,
                                         const RetryPolicy& policy,
                                         EquivalenceStrategy strategy,
                                         const std::string& tenant = "default");

}  // namespace confmask
