#include "export/json_writer.h"

#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace secreta {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
}

void JsonWriter::Key(const std::string& key) {
  Separate();
  Escape(key);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  Separate();
  Escape(value);
}

// std::to_chars writes printf's "%.12g" and "%lld" bytes in the C locale,
// without printf's format parsing or a temporary string.
void JsonWriter::Number(double value) {
  Separate();
  if (std::isfinite(value)) {
    char buf[32];  // "%.12g" of a double needs at most 19
    auto result = std::to_chars(buf, buf + sizeof buf, value,
                                std::chars_format::general, 12);
    out_.append(buf, result.ptr);
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
}

void JsonWriter::Int(int64_t value) {
  Separate();
  char buf[24];  // INT64_MIN is 20 characters
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
}

void JsonWriter::Escape(const std::string& raw) {
  out_ += '"';
  for (char c : raw) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += StrFormat("\\u%04x", c);
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

}  // namespace secreta
