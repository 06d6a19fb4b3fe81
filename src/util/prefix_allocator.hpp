// Allocation of fresh IPv4 prefixes that do not collide with a network's
// existing address space.
//
// ConfMask requires every fake link and fake host to live in a prefix "not
// included by any network that appeared in the original network
// configurations" (paper §5.3), so that added filters cannot interact with
// real routes. The allocator records all used prefixes and hands out
// non-overlapping blocks from configurable pools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/ipv4.hpp"

namespace confmask {

/// Thrown when a pool has no block left of the requested length. Carries
/// enough context (which pool, what was requested, how much was handed out)
/// for the guarded pipeline runner to widen the pool and retry instead of
/// aborting the run. Derives from std::runtime_error for backward
/// compatibility with pre-taxonomy catch sites.
class PrefixPoolExhausted : public std::runtime_error {
 public:
  PrefixPoolExhausted(Ipv4Prefix pool, int requested_length,
                      std::size_t allocated);

  [[nodiscard]] const Ipv4Prefix& pool() const { return pool_; }
  [[nodiscard]] int requested_length() const { return requested_length_; }
  /// Prefixes successfully handed out from this allocator before failure.
  [[nodiscard]] std::size_t allocated() const { return allocated_; }

 private:
  Ipv4Prefix pool_;
  int requested_length_;
  std::size_t allocated_;
};

class PrefixAllocator {
 public:
  /// `link_pool` supplies /31 point-to-point blocks for fake links and
  /// `host_pool` supplies /24 LANs for fake hosts. Defaults are chosen from
  /// ranges rarely used by the generated evaluation networks; collisions
  /// with used prefixes are skipped, not errors.
  PrefixAllocator(Ipv4Prefix link_pool, Ipv4Prefix host_pool);
  PrefixAllocator();

  /// The pools a default-constructed allocator draws from (the fallback
  /// ladder widens these on exhaustion).
  [[nodiscard]] static Ipv4Prefix default_link_pool();
  [[nodiscard]] static Ipv4Prefix default_host_pool();

  [[nodiscard]] const Ipv4Prefix& link_pool() const { return link_pool_; }
  [[nodiscard]] const Ipv4Prefix& host_pool() const { return host_pool_; }

  /// Marks a prefix as occupied by the original network.
  void reserve(const Ipv4Prefix& prefix);

  /// Returns true if `prefix` overlaps anything reserved or allocated.
  [[nodiscard]] bool in_use(const Ipv4Prefix& prefix) const;

  /// Allocates a fresh /31 for a fake point-to-point link.
  /// Throws PrefixPoolExhausted when the link pool is spent.
  Ipv4Prefix allocate_link();

  /// Allocates a fresh /24 for a fake host LAN.
  /// Throws PrefixPoolExhausted when the host pool is spent.
  Ipv4Prefix allocate_host_lan();

 private:
  Ipv4Prefix allocate(Ipv4Prefix pool, int length, std::uint64_t& cursor);

  /// Records a reserved or allocated prefix in both indexes.
  void occupy(const Ipv4Prefix& prefix);

  Ipv4Prefix link_pool_;
  Ipv4Prefix host_pool_;
  // 64-bit: a /0 pool holds 2^32 addresses, one past std::uint32_t's range.
  std::uint64_t link_cursor_ = 0;
  std::uint64_t host_cursor_ = 0;
  std::size_t allocation_count_ = 0;
  // Every occupied prefix as a (network << 6 | length) key, sorted, so
  // in_use asks by binary search whether one starts inside the candidate
  // and whether a shorter one (of a length present in `lengths_`)
  // contains it. A flat vector keeps copies of the allocator (watch mode
  // snapshots it) one allocation.
  std::vector<std::uint64_t> occupied_;
  std::uint64_t lengths_ = 0;  // bit L: some occupied prefix is a /L
};

}  // namespace confmask
