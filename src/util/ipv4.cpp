#include "src/util/ipv4.hpp"

#include <array>
#include <charconv>
#include <stdexcept>

namespace confmask {

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::array<std::uint32_t, 4> octets{};
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    if (pos >= text.size()) return std::nullopt;
    std::uint32_t value = 0;
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr == begin || value > 255) return std::nullopt;
    // Router-config semantics: octets are plain decimals of at most three
    // digits, and "010" is not a spelling of 10 (some stacks read leading
    // zeros as octal — safest to reject outright).
    const auto digits = static_cast<std::size_t>(ptr - begin);
    if (digits > 3 || (digits > 1 && *begin == '0')) return std::nullopt;
    octets[static_cast<std::size_t>(i)] = value;
    pos = static_cast<std::size_t>(ptr - text.data());
    if (i < 3) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
  }
  if (pos != text.size()) return std::nullopt;
  return Ipv4Address{(octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) |
                     octets[3]};
}

std::string Ipv4Address::str() const {
  std::string out;
  append_to(out);
  return out;
}

void Ipv4Address::append_to(std::string& out) const {
  char text[15];
  char* end = text;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const std::uint32_t octet = (bits_ >> shift) & 0xFF;
    if (octet >= 100) *end++ = static_cast<char>('0' + octet / 100);
    if (octet >= 10) *end++ = static_cast<char>('0' + octet / 10 % 10);
    *end++ = static_cast<char>('0' + octet % 10);
    if (shift != 0) *end++ = '.';
  }
  out.append(text, static_cast<std::size_t>(end - text));
}

int Ipv4Address::classful_prefix_length() const {
  const std::uint32_t top = bits_ >> 24;
  if (top < 128) return 8;    // class A
  if (top < 192) return 16;   // class B
  if (top < 224) return 24;   // class C
  return 32;                  // class D/E: treat as host route
}

namespace {

/// True if `mask` has contiguous leading ones; sets `length` accordingly.
bool contiguous_mask_length(std::uint32_t mask, int& length) {
  length = std::popcount(mask);
  const std::uint32_t expected =
      length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  return mask == expected;
}

}  // namespace

Ipv4Prefix::Ipv4Prefix(Ipv4Address addr, int length) : length_(length) {
  if (length < 0 || length > 32) {
    throw std::invalid_argument("prefix length out of range: " +
                                std::to_string(length));
  }
  const std::uint32_t mask =
      length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  network_ = Ipv4Address{addr.bits() & mask};
}

std::optional<Ipv4Prefix> Ipv4Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  int length = 0;
  const char* begin = text.data() + slash + 1;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, length);
  if (ec != std::errc{} || ptr != end || length < 0 || length > 32) {
    return std::nullopt;
  }
  return Ipv4Prefix{*addr, length};
}

std::optional<Ipv4Prefix> Ipv4Prefix::from_mask(Ipv4Address addr,
                                                Ipv4Address mask) {
  int length = 0;
  if (!contiguous_mask_length(mask.bits(), length)) return std::nullopt;
  return Ipv4Prefix{addr, length};
}

std::optional<Ipv4Prefix> Ipv4Prefix::from_wildcard(Ipv4Address addr,
                                                    Ipv4Address wildcard) {
  return from_mask(addr, Ipv4Address{~wildcard.bits()});
}

std::uint32_t Ipv4Prefix::mask_bits() const {
  return length_ == 0 ? 0u : ~std::uint32_t{0} << (32 - length_);
}

bool Ipv4Prefix::contains(Ipv4Address addr) const {
  return (addr.bits() & mask_bits()) == network_.bits();
}

bool Ipv4Prefix::contains(const Ipv4Prefix& other) const {
  return other.length_ >= length_ && contains(other.network_);
}

bool Ipv4Prefix::overlaps(const Ipv4Prefix& other) const {
  return contains(other) || other.contains(*this);
}

Ipv4Address Ipv4Prefix::host(std::uint32_t index) const {
  // An index wider than the host-bit count would OR into a neighboring
  // prefix and silently alias another network's address space.
  if (length_ > 0 && (index >> (32 - length_)) != 0) {
    throw std::out_of_range("host index " + std::to_string(index) +
                            " out of range for " + str());
  }
  return Ipv4Address{network_.bits() | index};
}

std::string Ipv4Prefix::str() const {
  std::string out;
  append_to(out);
  return out;
}

void Ipv4Prefix::append_to(std::string& out) const {
  network_.append_to(out);
  out += '/';
  if (length_ >= 10) out += static_cast<char>('0' + length_ / 10);
  out += static_cast<char>('0' + length_ % 10);
}

}  // namespace confmask
