#include "src/util/strings.hpp"

namespace confmask {

std::string_view trim(std::string_view text) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

void split_ws(std::string_view text, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t') ++i;
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += sep;
    out += pieces[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::size_t count_config_lines(std::string_view text) {
  std::size_t count = 0;
  for (std::string_view line : split(text, '\n')) {
    const std::string_view body = trim(line);
    if (!body.empty() && body != "!") ++count;
  }
  return count;
}

}  // namespace confmask
