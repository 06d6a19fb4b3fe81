// One-line flat JSON objects: the wire format of the confmaskd protocol
// and the on-disk format of cache entry metadata.
//
// The grammar is deliberately a subset of JSON — a single object whose
// values are strings, integers, doubles, or booleans; no nesting, no
// arrays, no null. That subset is expressive enough for every message the
// serving layer exchanges (bulk payloads like config bundles travel as one
// escaped string value), and small enough that the parser can be strict:
// anything outside the subset is a hard error, never a guess. Lines are
// written by src/util/json_writer.hpp (no dependencies, like the parser).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "src/util/json_writer.hpp"

namespace confmask {

/// A parsed flat-object value.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool };
  Kind kind = Kind::kString;
  std::string text;    ///< kString: unescaped contents; kNumber: raw token
  double number = 0;   ///< kNumber
  bool boolean = false;  ///< kBool
};

using JsonObject = std::map<std::string, JsonValue>;

/// Parses one flat JSON object. Returns nullopt on ANY deviation from the
/// subset grammar (trailing bytes included) — protocol errors must be
/// loud, not lenient.
[[nodiscard]] std::optional<JsonObject> parse_json_line(
    std::string_view line);

/// Same grammar, but on failure *error says WHAT deviated — `duplicate
/// key "seed"`, `trailing bytes after object`, `unterminated string` —
/// instead of a generic "malformed". The wire protocol uses this overload
/// so a client typo'ing a request gets a diagnosis, not a shrug.
[[nodiscard]] std::optional<JsonObject> parse_json_line(std::string_view line,
                                                        std::string* error);

/// The writer's name as the benchmark harness (perfbench/) spells it.
using JsonLineWriter = JsonWriter;

/// Convenience accessors returning nullopt on missing key or wrong kind.
[[nodiscard]] std::optional<std::string> get_string(const JsonObject& obj,
                                                    std::string_view key);
/// Exact int64 from the raw number token: nullopt unless the token is a
/// decimal integer in range (no fraction, no exponent).
[[nodiscard]] std::optional<std::int64_t> get_int(const JsonObject& obj,
                                                  std::string_view key);
/// Exact uint64 from the raw number token (doubles silently truncate
/// seeds above 2^53; this never does). nullopt unless the token is a pure
/// unsigned decimal integer in range.
[[nodiscard]] std::optional<std::uint64_t> get_u64(const JsonObject& obj,
                                                   std::string_view key);
[[nodiscard]] std::optional<double> get_double(const JsonObject& obj,
                                               std::string_view key);
[[nodiscard]] std::optional<bool> get_bool(const JsonObject& obj,
                                           std::string_view key);

}  // namespace confmask
