#include "src/service/json_line.hpp"

#include <cctype>
#include <charconv>
#include <utility>

namespace confmask {

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char take() { return text_[pos_++]; }
  [[nodiscard]] bool accept(char c) {
    if (done() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  [[nodiscard]] bool accept_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  [[nodiscard]] std::string_view rest() const { return text_.substr(pos_); }
  void advance(std::size_t n) { pos_ += n; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// On failure, `error` (when non-null) receives the specific deviation.
bool parse_string(Cursor& c, std::string& out, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!c.accept('"')) return fail("expected string");
  out.clear();
  while (!c.done()) {
    const char ch = c.take();
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) {
      return fail("raw control byte in string");
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.done()) return fail("unterminated string");
    const char esc = c.take();
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          if (c.done()) return fail("truncated \\u escape");
          const char h = c.take();
          value <<= 4;
          if (h >= '0' && h <= '9') {
            value |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            value |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            value |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return fail("invalid \\u escape");
          }
        }
        // The producers in this repository only emit \u00XX for control
        // bytes; reject anything needing surrogate handling.
        if (value > 0x7F) return fail("\\u escape above 0x7F");
        out += static_cast<char>(value);
        break;
      }
      default: return fail("invalid escape sequence");
    }
  }
  return fail("unterminated string");
}

bool parse_number(Cursor& c, double& out, std::string& raw) {
  const std::string_view rest = c.rest();
  std::size_t len = 0;
  if (len < rest.size() && rest[len] == '-') ++len;
  const std::size_t digits_start = len;
  while (len < rest.size() &&
         std::isdigit(static_cast<unsigned char>(rest[len]))) {
    ++len;
  }
  if (len == digits_start) return false;
  if (len < rest.size() && rest[len] == '.') {
    ++len;
    const std::size_t frac_start = len;
    while (len < rest.size() &&
           std::isdigit(static_cast<unsigned char>(rest[len]))) {
      ++len;
    }
    if (len == frac_start) return false;
  }
  if (len < rest.size() && (rest[len] == 'e' || rest[len] == 'E')) {
    ++len;
    if (len < rest.size() && (rest[len] == '+' || rest[len] == '-')) ++len;
    const std::size_t exp_start = len;
    while (len < rest.size() &&
           std::isdigit(static_cast<unsigned char>(rest[len]))) {
      ++len;
    }
    if (len == exp_start) return false;
  }
  const auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + len, out);
  if (ec != std::errc{} || ptr != rest.data() + len) return false;
  raw = std::string(rest.substr(0, len));
  c.advance(len);
  return true;
}

}  // namespace

std::optional<JsonObject> parse_json_line(std::string_view line) {
  return parse_json_line(line, nullptr);
}

std::optional<JsonObject> parse_json_line(std::string_view line,
                                          std::string* error) {
  const auto fail = [&](std::string what) -> std::optional<JsonObject> {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };
  Cursor c(line);
  c.skip_ws();
  if (!c.accept('{')) return fail("expected '{'");
  JsonObject out;
  c.skip_ws();
  if (c.accept('}')) {
    c.skip_ws();
    if (!c.done()) return fail("trailing bytes after object");
    return out;
  }
  std::string detail;
  for (;;) {
    c.skip_ws();
    std::string key;
    if (!parse_string(c, key, &detail)) {
      return fail("bad object key: " + detail);
    }
    c.skip_ws();
    if (!c.accept(':')) return fail("expected ':' after key \"" + key + "\"");
    c.skip_ws();
    JsonValue value;
    if (!c.done() && c.peek() == '"') {
      value.kind = JsonValue::Kind::kString;
      if (!parse_string(c, value.text, &detail)) {
        return fail("bad value for key \"" + key + "\": " + detail);
      }
    } else if (c.accept_word("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
    } else if (c.accept_word("false")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = false;
    } else {
      value.kind = JsonValue::Kind::kNumber;
      if (!parse_number(c, value.number, value.text)) {
        return fail("bad value for key \"" + key +
                    "\" (expected string, number, or boolean)");
      }
    }
    // Duplicate keys are a classic smuggling vector (two parsers, two
    // winners) — rejected by NAME so the sender can see which one.
    if (out.count(key) != 0) return fail("duplicate key \"" + key + "\"");
    out.emplace(std::move(key), std::move(value));
    c.skip_ws();
    if (c.accept(',')) continue;
    if (c.accept('}')) break;
    return fail("expected ',' or '}' in object");
  }
  c.skip_ws();
  if (!c.done()) return fail("trailing bytes after object");
  return out;
}

std::optional<std::string> get_string(const JsonObject& obj,
                                      std::string_view key) {
  const auto it = obj.find(std::string(key));
  if (it == obj.end() || it->second.kind != JsonValue::Kind::kString) {
    return std::nullopt;
  }
  return it->second.text;
}

namespace {

/// The raw number token of `key` read exactly as `Integer`, or nullopt.
template <typename Integer>
std::optional<Integer> get_exact(const JsonObject& obj, std::string_view key) {
  const auto it = obj.find(std::string(key));
  if (it == obj.end() || it->second.kind != JsonValue::Kind::kNumber) {
    return std::nullopt;
  }
  const std::string& raw = it->second.text;
  Integer value = 0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (ec != std::errc{} || ptr != raw.data() + raw.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<std::int64_t> get_int(const JsonObject& obj,
                                    std::string_view key) {
  return get_exact<std::int64_t>(obj, key);
}

std::optional<std::uint64_t> get_u64(const JsonObject& obj,
                                     std::string_view key) {
  return get_exact<std::uint64_t>(obj, key);
}

std::optional<double> get_double(const JsonObject& obj,
                                 std::string_view key) {
  const auto it = obj.find(std::string(key));
  if (it == obj.end() || it->second.kind != JsonValue::Kind::kNumber) {
    return std::nullopt;
  }
  return it->second.number;
}

std::optional<bool> get_bool(const JsonObject& obj, std::string_view key) {
  const auto it = obj.find(std::string(key));
  if (it == obj.end() || it->second.kind != JsonValue::Kind::kBool) {
    return std::nullopt;
  }
  return it->second.boolean;
}

}  // namespace confmask
