#include "src/util/observability.hpp"

#include <array>
#include <bit>
#include <chrono>

namespace confmask::obs {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// The bytes a JSON string literal must escape: '"', '\\' and 0x00–0x1F.
constexpr std::array<bool, 256> kNeedsEscape = [] {
  std::array<bool, 256> table{};
  for (std::size_t byte = 0; byte < 0x20; ++byte) table[byte] = true;
  table['"'] = true;
  table['\\'] = true;
  return table;
}();

}  // namespace

void append_json_escaped(std::string& out, std::string_view text) {
  out.reserve(out.size() + text.size());
  std::size_t clean = 0;  // start of the run not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (!kNeedsEscape[byte]) continue;
    out.append(text.data() + clean, i - clean);
    clean = i + 1;
    switch (byte) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                               kHex[byte & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(text.data() + clean, text.size() - clean);
}

void Histogram::record(std::uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(std::bit_width(value))].fetch_add(
      1, std::memory_order_relaxed);
  // min/max via CAS loops — contention is negligible at phase granularity.
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

void NdjsonSink::write_line(std::string_view json_object) {
  if (out_ == nullptr) return;  // stream-less base of a broadcast subclass
  const std::lock_guard<std::mutex> lock(mutex_);
  *out_ << json_object << '\n';
}

}  // namespace confmask::obs
