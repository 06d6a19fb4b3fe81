#include "src/util/json_writer.hpp"

#include <cstdio>
#include <utility>

#include "src/util/observability.hpp"

namespace confmask {

JsonWriter::JsonWriter(Layout layout) : document_(layout == Layout::kLines) {
  open('{', '}', layout);
}

void JsonWriter::next() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  Open& level = open_.back();
  if (!level.empty) body_ += ',';
  if (level.layout == Layout::kLines) {
    body_ += '\n';
    body_.append(2 * open_.size(), ' ');
  } else if (!level.empty) {
    body_ += ' ';
  }
  level.empty = false;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  string(name);
  body_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::token(std::string_view text) {
  next();
  body_ += text;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket, char close, Layout layout) {
  if (!open_.empty()) next();
  body_ += bracket;
  open_.push_back({close, layout, true});
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  next();
  body_ += '"';
  obs::append_json_escaped(body_, value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::real(std::string_view k, double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return key(k).token(text);
}

JsonWriter& JsonWriter::end() {
  const Open level = open_.back();
  open_.pop_back();
  if (level.layout == Layout::kLines && !level.empty) {
    body_ += '\n';
    body_.append(2 * open_.size(), ' ');
  }
  body_ += level.close;
  return *this;
}

std::string JsonWriter::str() && {
  while (!open_.empty()) end();
  if (document_) body_ += '\n';
  return std::move(body_);
}

}  // namespace confmask
