// The one JSON producer in the repository. confmaskd's protocol lines,
// journal records and cache metadata, the confmask.trace/1 stream,
// metrics.json, diagnostics.json and the BENCH_*.json documents are all
// written through JsonWriter. Members and elements appear in call order:
// field order is part of every format, and tests diff raw bytes.
//
// Each object or array picks its layout when it opens:
//  * inline: `{"a": 1, "b": [1, 2]}`;
//  * lines: one member per line, indented two spaces per level:
//      {
//        "a": 1,
//        "b": []
//      }
// An empty container prints as `{}` or `[]` in either layout. A root
// object in the lines layout makes the text a document, which ends with a
// newline; an inline root is one line without one (its sink or socket
// adds the terminator).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace confmask {

class JsonWriter {
 public:
  enum class Layout { kInline, kLines };

  /// Opens the root object in `layout`.
  explicit JsonWriter(Layout layout = Layout::kInline);

  // Members of the innermost open object. Keys and strings are escaped
  // through obs::append_json_escaped.
  JsonWriter& string(std::string_view k, std::string_view value) {
    return key(k).string(value);
  }
  JsonWriter& number(std::string_view k, std::int64_t value) {
    return key(k).token(std::to_string(value));
  }
  JsonWriter& number_u64(std::string_view k, std::uint64_t value) {
    return key(k).number_u64(value);
  }
  /// `%.17g`, which round-trips every double: the wire form.
  JsonWriter& real(std::string_view k, double value);
  /// Six decimals, as `std::to_string` prints them: the BENCH_*.json form.
  JsonWriter& fixed(std::string_view k, double value) {
    return key(k).token(std::to_string(value));
  }
  JsonWriter& boolean(std::string_view k, bool value) {
    return key(k).token(value ? "true" : "false");
  }
  JsonWriter& null(std::string_view k) { return key(k).token("null"); }
  /// Opens an object or array member; end() closes it.
  JsonWriter& object(std::string_view k, Layout layout = Layout::kInline) {
    return key(k).object(layout);
  }
  JsonWriter& array(std::string_view k, Layout layout = Layout::kInline) {
    return key(k).array(layout);
  }

  // Elements of the innermost open array.
  JsonWriter& string(std::string_view value);
  JsonWriter& number_u64(std::uint64_t value) {
    return token(std::to_string(value));
  }
  JsonWriter& object(Layout layout = Layout::kInline) {
    return open('{', '}', layout);
  }
  JsonWriter& array(Layout layout = Layout::kInline) {
    return open('[', ']', layout);
  }

  /// Closes the innermost open object or array.
  JsonWriter& end();

  /// The finished text, with every container still open closed.
  [[nodiscard]] std::string str() const& { return JsonWriter(*this).str(); }
  /// The same, moving the buffer out of a writer that is done: no copy of
  /// a line that carries a whole bundle.
  [[nodiscard]] std::string str() &&;

 private:
  struct Open {
    char close;
    Layout layout;
    bool empty;
  };

  /// Writes the separator and indentation a value needs, unless it
  /// follows its key.
  void next();
  JsonWriter& key(std::string_view name);
  /// Appends an unquoted value: a number, `true`, `false` or `null`.
  JsonWriter& token(std::string_view text);
  JsonWriter& open(char bracket, char close, Layout layout);

  std::string body_;
  std::vector<Open> open_;
  bool after_key_ = false;
  bool document_ = false;
};

}  // namespace confmask
