// IPv4 address and prefix arithmetic.
//
// These are the value types the whole repository is built on: configuration
// files store interface addresses and prefix-list entries, the routing
// simulator keys its RIB/FIB on prefixes, and the anonymizer allocates fresh
// prefixes for fake links and fake hosts. Everything here is a plain value
// type with no invariants beyond range checks done at construction.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace confmask {

/// A single IPv4 address stored in host byte order.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t bits) : bits_(bits) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : bits_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Parses dotted-quad notation ("10.0.0.1"). Returns nullopt on any
  /// malformed input (wrong number of octets, octet > 255, junk
  /// characters, leading-zero or >3-digit octets — "010.0.0.1" is
  /// rejected to match router-config semantics).
  static std::optional<Ipv4Address> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t bits() const { return bits_; }
  [[nodiscard]] std::string str() const;
  /// Appends the dotted quad to `out`: the one IPv4 formatter, behind
  /// str(), Ipv4Prefix::str() and the configuration emitter.
  void append_to(std::string& out) const;

  /// The classful network class of this address (A => /8, B => /16,
  /// C => /24, other => /32). Used by RIP `network` statements.
  [[nodiscard]] int classful_prefix_length() const;

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  std::uint32_t bits_ = 0;
};

/// An IPv4 prefix (network address + prefix length). The network address is
/// always stored canonicalized (host bits zeroed).
class Ipv4Prefix {
 public:
  constexpr Ipv4Prefix() = default;
  Ipv4Prefix(Ipv4Address addr, int length);

  /// Parses "10.1.2.0/24". Returns nullopt on malformed input.
  static std::optional<Ipv4Prefix> parse(std::string_view text);

  /// Builds a prefix from an address and a dotted-quad subnet mask
  /// ("255.255.255.0"). Returns nullopt if the mask is non-contiguous.
  static std::optional<Ipv4Prefix> from_mask(Ipv4Address addr,
                                             Ipv4Address mask);

  /// Builds a prefix from an address and a Cisco wildcard mask
  /// ("0.0.0.255" == /24). Returns nullopt if the wildcard is
  /// non-contiguous.
  static std::optional<Ipv4Prefix> from_wildcard(Ipv4Address addr,
                                                 Ipv4Address wildcard);

  [[nodiscard]] Ipv4Address network() const { return network_; }
  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] std::uint32_t mask_bits() const;
  [[nodiscard]] Ipv4Address mask() const { return Ipv4Address{mask_bits()}; }
  [[nodiscard]] Ipv4Address wildcard() const {
    return Ipv4Address{~mask_bits()};
  }

  [[nodiscard]] bool contains(Ipv4Address addr) const;
  [[nodiscard]] bool contains(const Ipv4Prefix& other) const;
  [[nodiscard]] bool overlaps(const Ipv4Prefix& other) const;

  /// The i-th host address inside this prefix (0 = network address).
  /// Throws std::out_of_range when `index` does not fit in the host bits
  /// (it would otherwise wrap into a neighboring prefix).
  [[nodiscard]] Ipv4Address host(std::uint32_t index) const;

  [[nodiscard]] std::string str() const;
  /// Appends "a.b.c.d/len" to `out`.
  void append_to(std::string& out) const;

  friend auto operator<=>(const Ipv4Prefix&, const Ipv4Prefix&) = default;

 private:
  Ipv4Address network_;
  int length_ = 0;
};

}  // namespace confmask
