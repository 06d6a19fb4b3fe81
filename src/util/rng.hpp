// Deterministic pseudo-random number generation.
//
// Every randomized step in the repository (Algorithm 2 noise, topology
// realization tie-breaking, synthetic network growth) draws from an explicit
// Rng instance seeded by the caller, so that every benchmark table is
// reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

namespace confmask {

/// xoshiro256** by Blackman & Vigna, seeded via splitmix64. Small, fast and
/// statistically solid; we deliberately avoid std::mt19937 so that streams
/// are stable across standard library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with probability `p`.
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Picks a uniformly random element index of a non-empty container.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[static_cast<std::size_t>(below(items.size()))];
  }

  /// Equal states draw equal streams.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  std::uint64_t state_[4];
};

}  // namespace confmask
