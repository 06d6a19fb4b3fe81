// Small string helpers shared by the configuration parser/emitter and
// the command-line tools.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace confmask {

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Splits on runs of spaces/tabs, dropping empty tokens, into `tokens`
/// (cleared first, so a caller that reuses it across lines keeps its
/// capacity). The tokens are views into `text`.
void split_ws(std::string_view text, std::vector<std::string_view>& tokens);

/// Splits on a single separator character, keeping empty fields.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Counts non-empty, non-comment ("!" separator) configuration lines; this
/// is the line count the paper's U_C metric is computed over.
std::size_t count_config_lines(std::string_view text);

/// Reads `text` into `out` iff all of it is one number of out's type: no
/// sign on an unsigned type, no unit, nothing before or after it. How the
/// command-line tools read every numeric flag.
template <typename T>
bool read_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc{} && stop == end;
}

}  // namespace confmask
