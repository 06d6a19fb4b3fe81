#include "src/util/prefix_allocator.hpp"

#include <algorithm>

#include "src/util/fault_points.hpp"

namespace confmask {

PrefixPoolExhausted::PrefixPoolExhausted(Ipv4Prefix pool, int requested_length,
                                         std::size_t allocated)
    : std::runtime_error("prefix pool exhausted: " + pool.str() + " (/" +
                         std::to_string(requested_length) + " blocks, " +
                         std::to_string(allocated) + " already allocated)"),
      pool_(pool),
      requested_length_(requested_length),
      allocated_(allocated) {}

PrefixAllocator::PrefixAllocator(Ipv4Prefix link_pool, Ipv4Prefix host_pool)
    : link_pool_(link_pool), host_pool_(host_pool) {}

PrefixAllocator::PrefixAllocator()
    : PrefixAllocator(default_link_pool(), default_host_pool()) {}

Ipv4Prefix PrefixAllocator::default_link_pool() {
  return *Ipv4Prefix::parse("172.20.0.0/14");
}

Ipv4Prefix PrefixAllocator::default_host_pool() {
  return *Ipv4Prefix::parse("100.96.0.0/12");
}

namespace {

std::uint64_t prefix_key(std::uint32_t network, int length) {
  return static_cast<std::uint64_t>(network) << 6 |
         static_cast<std::uint64_t>(length);
}

}  // namespace

void PrefixAllocator::occupy(const Ipv4Prefix& prefix) {
  const std::uint64_t key =
      prefix_key(prefix.network().bits(), prefix.length());
  const auto at = std::lower_bound(occupied_.begin(), occupied_.end(), key);
  if (at == occupied_.end() || *at != key) occupied_.insert(at, key);
  lengths_ |= std::uint64_t{1} << prefix.length();
}

void PrefixAllocator::reserve(const Ipv4Prefix& prefix) { occupy(prefix); }

bool PrefixAllocator::in_use(const Ipv4Prefix& prefix) const {
  // Two prefixes overlap iff the longer lies inside the shorter. An
  // occupied prefix starting inside `prefix` overlaps it whatever its
  // length (a shorter one starting there contains it); any other overlap
  // is a shorter occupied prefix containing `prefix`, whose network is
  // `prefix` masked to its length.
  const std::uint32_t first = prefix.network().bits();
  const std::uint64_t last =
      first + (std::uint64_t{1} << (32 - prefix.length())) - 1;
  const auto start =
      std::lower_bound(occupied_.begin(), occupied_.end(), prefix_key(first, 0));
  if (start != occupied_.end() && (*start >> 6) <= last) return true;
  for (int length = 0; length < prefix.length(); ++length) {
    if ((lengths_ >> length & 1) == 0) continue;
    const std::uint32_t mask =
        length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
    if (std::binary_search(occupied_.begin(), occupied_.end(),
                           prefix_key(first & mask, length))) {
      return true;
    }
  }
  return false;
}

Ipv4Prefix PrefixAllocator::allocate(Ipv4Prefix pool, int length,
                                     std::uint64_t& cursor) {
  if (faults::fire(faults::kPrefixPoolExhausted)) {
    throw PrefixPoolExhausted(pool, length, allocation_count_);
  }
  // 64-bit arithmetic throughout: `1u << (32 - length)` is UB for a /0
  // pool (shift by 32), and a /0 pool's capacity (2^32) does not fit in
  // 32 bits at all.
  const std::uint64_t step = std::uint64_t{1} << (32 - length);
  const std::uint64_t capacity = std::uint64_t{1} << (32 - pool.length());
  while (cursor < capacity) {
    const Ipv4Prefix candidate{
        Ipv4Address{pool.network().bits() + static_cast<std::uint32_t>(cursor)},
        length};
    cursor += step;
    if (!in_use(candidate)) {
      occupy(candidate);
      ++allocation_count_;
      return candidate;
    }
  }
  throw PrefixPoolExhausted(pool, length, allocation_count_);
}

Ipv4Prefix PrefixAllocator::allocate_link() {
  return allocate(link_pool_, 31, link_cursor_);
}

Ipv4Prefix PrefixAllocator::allocate_host_lan() {
  return allocate(host_pool_, 24, host_cursor_);
}

}  // namespace confmask
