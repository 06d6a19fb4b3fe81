#include "src/util/observability.hpp"

#include <bit>
#include <chrono>
#include <cstdio>

namespace confmask::obs {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  append_escaped(out, text);
  out += '"';
  return out;
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
