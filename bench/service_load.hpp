// The client side of the confmaskd harnesses (bench_service, bench_fleet,
// chaos_confmaskd): the submit line, one submit -> poll-to-terminal ->
// result cycle, and the latency summary the load benches write into their
// BENCH_*.json documents.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/service/client.hpp"
#include "src/service/json_line.hpp"

namespace confmask::bench {

/// A submit of `configs` at k_R 2, k_H 2 and `seed`, under `tenant` when
/// one is named.
inline std::string submit_line(const std::string& configs, std::uint64_t seed,
                               std::string_view tenant = {}) {
  JsonWriter line;
  line.string("op", "submit")
      .string("configs", configs)
      .number("k_r", 2)
      .number("k_h", 2)
      .number_u64("seed", seed);
  if (!tenant.empty()) line.string("tenant", tenant);
  return std::move(line).str();
}

/// One submit -> poll-to-terminal -> result cycle against one daemon.
/// Returns latency in milliseconds, or nullopt on any transport/protocol
/// failure.
inline std::optional<double> run_op(const std::string& socket_path,
                                    const std::string& configs,
                                    std::uint64_t seed,
                                    std::string_view tenant = {}) {
  const auto start = std::chrono::steady_clock::now();
  const auto submitted = client_roundtrip(
      socket_path, submit_line(configs, seed, tenant),
      static_cast<std::string*>(nullptr), /*receive_timeout_ms=*/30'000);
  if (!submitted) return std::nullopt;
  const auto parsed = parse_json_line(*submitted);
  if (!parsed || get_bool(*parsed, "ok") != true) return std::nullopt;
  const auto job = get_u64(*parsed, "job");
  if (!job) return std::nullopt;

  const std::string status_line =
      JsonWriter{}.string("op", "status").number_u64("job", *job).str();
  for (int i = 0; i < 20'000; ++i) {
    const auto response = client_roundtrip(
        socket_path, status_line, static_cast<std::string*>(nullptr),
        /*receive_timeout_ms=*/30'000);
    if (!response) return std::nullopt;
    const auto status = parse_json_line(*response);
    if (!status) return std::nullopt;
    const auto state = get_string(*status, "state");
    if (!state) return std::nullopt;
    if (*state == "done") break;
    if (*state == "failed" || *state == "cancelled") return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto result = client_roundtrip(
      socket_path,
      JsonWriter{}.string("op", "result").number_u64("job", *job).str(),
      static_cast<std::string*>(nullptr), /*receive_timeout_ms=*/30'000);
  if (!result) return std::nullopt;
  const auto body = parse_json_line(*result);
  if (!body || get_bool(*body, "ok") != true) return std::nullopt;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[index];
}

/// Writes the member "latency_ms": {"p50", "p99", "max"} of `sorted`.
inline void write_latency_ms(JsonWriter& out,
                             const std::vector<double>& sorted) {
  out.object("latency_ms")
      .fixed("p50", percentile(sorted, 0.50))
      .fixed("p99", percentile(sorted, 0.99))
      .fixed("max", sorted.empty() ? 0.0 : sorted.back())
      .end();
}

}  // namespace confmask::bench
