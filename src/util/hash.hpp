// FNV-1a/64: the content-addressing hash of the serving layer.
//
// Cache keys (src/service/cache_key.hpp) are FNV-1a/64 digests of a
// canonical byte string (canonical ConfigSet text + canonical parameter
// encoding). FNV-1a was chosen over stronger hashes deliberately:
//  * it is trivially portable — no dependency, no endianness trap, and the
//    digest of a given byte string is identical on every platform, which is
//    what makes cache keys stable across machines sharing a cache dir;
//  * the inputs are trusted (the operator's own configs), so collision
//    *attacks* are out of scope; accidental 64-bit collisions are guarded
//    against by a second, independently-seeded digest stored in the cache
//    entry metadata (see ArtifactCache).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace confmask {

/// Streaming FNV-1a/64 hasher. Feed bytes with update(); read the running
/// digest with value() at any point. Two hashers fed the same byte
/// sequence in any chunking produce the same digest.
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x00000100000001B3ULL;

  /// `basis` overrides the offset basis — used to derive the independent
  /// secondary digest (any odd constant different from kOffsetBasis works).
  explicit Fnv1a64(std::uint64_t basis = kOffsetBasis) : state_(basis) {}

  void update(std::string_view bytes) {
    std::uint64_t h = state_;
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= kPrime;
    }
    state_ = h;
  }

  /// Hashes the 8 bytes of `v` in little-endian order (explicitly, so the
  /// digest does not depend on host endianness).
  void update_u64(std::uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    update(std::string_view(bytes, 8));
  }

  /// Feeds `bytes` to both hashers in one pass: two independent digests
  /// of the same bytes for one read of them.
  static void update_both(Fnv1a64& a, Fnv1a64& b, std::string_view bytes) {
    std::uint64_t x = a.state_;
    std::uint64_t y = b.state_;
    for (const char c : bytes) {
      const auto byte = static_cast<unsigned char>(c);
      x = (x ^ byte) * kPrime;
      y = (y ^ byte) * kPrime;
    }
    a.state_ = x;
    b.state_ = y;
  }

  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_;
};

/// One-shot digest of a byte string.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Lower-case 16-hex-digit rendering of a 64-bit digest (fixed width, so
/// digests sort lexicographically like they sort numerically).
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Inverse of hex64; nullopt on malformed input (wrong length or non-hex
/// characters).
[[nodiscard]] std::optional<std::uint64_t> parse_hex64(std::string_view text);

}  // namespace confmask
